"""The CLI's bytes, pinned: exit code, stdout and stderr of each argv.

Each value is the sha256 of repr((exit code, stdout, stderr)) for the argv
its key spells (split on spaces).  The argv cover sf and spectrum for every
model, every verify relation, link and limits, each with its error paths
(missing flags, bad domains, values past double range), plus --help for
the program and each subcommand, an unknown relation, flags a relation
or a model ignores (never echoed by verify), an impossible tolerance,
margin, mu or mu_tilde, and a nan or infinite model or linkage parameter.
A refactor that keeps the CLI's output keeps every hash; a change that
moves output on purpose re-pins exactly the argv it moves.
"""

import hashlib
import io
from contextlib import redirect_stderr, redirect_stdout

import pytest

from defosc.cli import main

PINS = {
    "sf --model harmonic --n-max 12":
        "1d82ecf2fe643eddb6544fa7d4491f9787c0625a86f5ada9b4ee7e890a03c9e9",
    "spectrum --model harmonic --n-max 7 --format json":
        "cfece8fc2cbab329728203cf091ea18b435ec4dd050b9ca3e49440e869c8b867",
    "sf --model arik-coon --q 1.3 --n-max 12":
        "a6dd4fd4c7052de8d08d7821976dc7f978ab938cb4e1719c05120ebadd2e1ca4",
    "spectrum --model arik-coon --q 1.3 --n-max 7 --format json":
        "1b807175c1a1e57fbd75387067216b3fd7ed21c897b555190fa94e52854945b9",
    "sf --model biedenharn-macfarlane --q 0.8 --n-max 12":
        "3adb4305d736223f7843f12d85a58028d7d9d02254c667686485a189a2394140",
    "spectrum --model biedenharn-macfarlane --q 0.8 --n-max 7 --format json":
        "d940b2b5bf58d6f18bd62bbd86c88f4af17256fe3d65fccb1269fbf400fd36c5",
    "sf --model cj --q 1.2 --p 0.7 --n-max 12":
        "12d5be8e9a6f35a7ab4923bae97dc899f9a7869754a08a408639a530e5d7a0b5",
    "spectrum --model cj --q 1.2 --p 0.7 --n-max 7 --format json":
        "1c927ad9ae9ed325ec7965b115a73a201be4d11b6af5fe84dba0f03846502fe6",
    "sf --model jannussis-mu --mu-tilde 0.2 --n-max 12":
        "e35690c2548e8b090d1e8a2b0ce001b7b9805068d2d273bf9139e650ecb88dc7",
    "spectrum --model jannussis-mu --mu-tilde 0.2 --n-max 7 --format json":
        "82ad5a9470e9c9f22f43860b773f389a69631d1a97403cbac60ad235940db769",
    "sf --model nonstd-q --q 1.1 --n-max 12":
        "ad33ca260daa8532fe445f75f961d585dba42076d80794609d7526c6ee9d2e8c",
    "spectrum --model nonstd-q --q 1.1 --n-max 7 --format json":
        "399b1f08288237680f850b824d1c8cfff2a7ef5db2fc17fad4c9d33bc61c7df9",
    "sf --model nonstd-qp --q 1.2 --p 0.9 --n-max 12":
        "dcc76bc78311fbfb07e083c4132c881c9db2f3224de2fb360704f08d5679329f",
    "spectrum --model nonstd-qp --q 1.2 --p 0.9 --n-max 7 --format json":
        "36b1c616ad59cc81cbf71c102a673921c75e7ddc8e596686becb4afeb1cbb9b2",
    "sf --model two-sided-equal --qb 1.1 --pb 1.0 --n-max 12":
        "61693d9e4c248a978f33287cbda8f767f36d9ae7583ebee0dc2857433125fd55",
    "spectrum --model two-sided-equal --qb 1.1 --pb 1.0 --n-max 7 --format json":
        "6ab7f9037d0d12b5700d1510d21d690d2dd614ac03894878f7d84a69328180b4",
    "sf --model arik-coon --q 2 --n-max 1100":
        "d947c58d45a37d598c8ecb1b3151d9b449a660c390e13bfae4b0f4bf12533e19",
    "sf --model arik-coon --q 1e-300 --n-max 3":
        "8c16f4063ee72e3424053141d3320e1b9e5e963c81a4cb1464b3781ac0531ccd",
    "sf --model arik-coon --q 1e300 --n-max 3":
        "f56eb99cc00cb1f44ad61580f0a624dea4c8ada7e8b3aa0f2e6f90dd72ebf895",
    "sf --model arik-coon --q -1 --n-max 3":
        "87c9a90d77a6dc055016cb46761c974245cd6456cb6fa7d19a10fdef42b09882",
    "sf --model arik-coon --n-max 3":
        "4d81e85308d7d51efaf64af14488235f3c07176fa9f18917ca00ffc0bacf3b3d",
    "sf --model cj --q 1.1 --n-max 4":
        "da9b6eebc248688e22f668709697aadcf2d10f4a302e1da530ebeab6004d1707",
    "sf --model cj --q 1.1 --p 1.1000000000011 --n-max 30":
        "4936da612a80053997428a0469c95748c0ca48360b852e67709c9e90c1f8b297",
    "sf --model jannussis-mu --mu-tilde -0.3 --n-max 6":
        "babd32610de4795d2bb9196123666d0ee665d9180f1ff0a0d2d7396070edcfc4",
    "sf --model nonstd-q --q 1 --n-max 9 --format json":
        "0919242648aacea93cbc6a686b1e4daf8aa4c965ce48adae81b1ac731fdb59f6",
    "sf --model nonstd-q --q 0.5 --n-max 600":
        "c5bd6a8a29b52d918fe116a825680f922135040f83e49a6f135e37d96cb02fcc",
    "sf --model nonstd-qp --q 1e-300 --p 1 --n-max 3":
        "4af67f6441bc7b275aa8ef6dbdde857360b71f812ef755fa24c20b132b3bfe48",
    "sf --model nonstd-qp --q 2 --n-max 3":
        "61da79aa55afbf1debae6b4ea59abc0bc4b91e5d0e1de4614f5a4b608137ceae",
    "sf --model two-sided-equal --qb 0.5 --pb 1 --n-max 2000":
        "9f7e91793966426660631fdf2da140a9e2bdba45f743bac252bcd54a3e13e2d4",
    "sf --model two-sided-equal --qb 1e3 --pb 1e-3 --n-max 40":
        "9336132bac031d061202f62ea9ce1beb43d29fd6ccc327a40dee156e38fc267c",
    "sf --model two-sided-equal --qb 1 --pb 0 --n-max 3":
        "0bc3834d02c944e46486ecc1f53252d691b42e78e4bf71eb99b1f6536734dfe1",
    "sf --model biedenharn-macfarlane --q nan --n-max 3":
        "cf38413fdef72453e21ee90d2ea495f62a0a03e114eb18b4d3274d6c11594c5a",
    "sf --model harmonic --n-max -1":
        "a071b00f6b233dc0e2859d61c93c1211772c98c940e45d8c203ed6bd55fb1ebc",
    "spectrum --model harmonic --n-max -1":
        "a071b00f6b233dc0e2859d61c93c1211772c98c940e45d8c203ed6bd55fb1ebc",
    "sf --n-max 3":
        "f545c2d3deb27a98047ae06056e7da0cd58ec7dae51ae608a02d67a59209f8e7",
    "sf --model nope --n-max 3":
        "349d8e5564501c8acaa286dfff8552b5d0575377a1bf9af39bb8ea5d0dd32fe8",
    "verify --relation q-ha --q 1.05 --dim 8":
        "7f4c2194cdc552bf269bdce91c361606b31cb171cd087613e6be129e61082d53",
    "verify --relation q-ha --q 2 --dim 300":
        "e842ae357d228d003ae574a3571eae9c8b82db037ab7fe1ae50f7c6b9f6168f4",
    "verify --relation q-ha --q 0.9 --dim 64 --format json":
        "96097eab18fefad0af14b2d8dbc5e6bd9ea3f5f07e69fa784176597a78595991",
    "verify --relation q-ha --dim 8":
        "31e501e04115a829e06de61a3951fccc0f8dcf0a4a65b82908615573b50d18a6",
    "verify --relation qp-ha --q 1.2 --p 0.9 --dim 64":
        "2486f20abdf4c8847ea719b76575f7db047738499e3e359822b77c17ce2ecb79",
    "verify --relation qp-ha --q 2 --p 0.5 --dim 300":
        "490312d340ec67f79a5bee3030919c6376d32a781ebe1db122525b163097a06e",
    "verify --relation qp-ha --q 1.2 --dim 8":
        "8f62bc1dea863971b6a65d01f3a4c53d26326d1178b94c7d13e8ac69fee0e66c",
    "verify --relation two-sided --qb 1.1 --pb 0.95 --mu 0.3 --dim 64":
        "b57acaedd29ee30ba4bfe1a26b401cda1d7165ba66c04ae651eaa802c685f16a",
    "verify --relation two-sided --qb 1.1 --pb 0.95 --mu 0.3 --dim 64 --alt-pairing":
        "65fca0b1313254823806c540073d746d31dc6b8002e6dfeb28ae7c5bb4698730",
    "verify --relation two-sided --qb 1.01 --pb 1 --dim 300 --margin 5":
        "5f6e034a489c38d72daf0ca469e994480c507a09ed947166efbcce737654c572",
    "verify --relation two-sided --qb 1.1 --pb -1 --dim 8":
        "79949dc11a2c25d3858cb5f73ca25a091dc914790975036fb2ac54a0201a898c",
    "verify --relation two-sided --qb 1e200 --pb 1 --dim 8":
        "55001bac8b7a3ea26f1202809043165a807d3c64673e1273de402e882728d891",
    "verify --relation hg --q 0.9 --dim 64":
        "9995d042aec2e159b3ae10ed89cba69cff59ed141a720bcbb5c265de8a15f19e",
    "verify --relation hg --q 1.2 --p 0.9 --dim 8 --format json":
        "e3ddb8ddffb8956a6c56108a3dfa0dc23755a09b4d2f91980cc16c548fdd7303",
    "verify --relation hg --qb 1.05 --pb 1 --mu -0.2 --dim 300":
        "3bf13e9bdeb31cfaa4085ee3e119cda5190a27fff06f8774b6a83f14a302fd1c",
    "verify --relation hg --qb 1.05 --dim 8":
        "325c6c876c991d281deafdb1a9a57a68aa18053efe425114f8e805963446d57d",
    "verify --relation commutator-sf --model arik-coon --q 1.3 --dim 64":
        "2035a40e02634b68eb58577fd9c8b0888a412982473a3cca13e4dfb2203943d8",
    "verify --relation commutator-sf --model nonstd-q --q 0.7 --dim 8":
        "1c3c4b203bd0027b3d93066773c9bf4409fdfe3c7e608f730ed7e828e91701bc",
    "verify --relation commutator-sf --model jannussis-mu --mu-tilde -0.5 --dim 8":
        "51bb53a741bff40c8ec56f6d5134086dc1676e678ef3253d03a013f76e577ef2",
    "verify --relation commutator-sf --model harmonic --dim 1":
        "a949e6774519bdc55b96c4868912e7cf3bc6545abf9852dead198136d244336d",
    "verify --relation commutator-sf --dim 8":
        "f545c2d3deb27a98047ae06056e7da0cd58ec7dae51ae608a02d67a59209f8e7",
    "link --qb 2 --pb 1 --p 1":
        "11633f1b3d2f7934a0810b5a6e4e9d6882df5de6e976d227503099bebe5516a8",
    "link --qb 1.1 --pb 0.9 --p 1.1 --n-max 5 --format json":
        "ba40d94bd2681e6f5793241301c26219195edcb12ba497751c72e90753d22b86",
    "link --qb 2 --pb 1 --p 1 --n-max 13":
        "a94dcf4cd855a213adc983b66528d079812cb0456800a3fddfa7a4005cd2edd3",
    "link --qb 2 --pb 0.5 --p 2 --n-max 8":
        "cc2a716bf58cc95e0564207b54845a5ee3c1408177c12e4d63d6aa4b69e50ffd",
    "link --qb 2 --pb 1 --p 0.0625 --n-max 260":
        "6d851d7775f55ffceda692aa3c509830f076d9220ffc7655b94221bcccdfa0dd",
    "link --qb 1 --pb 1 --p 1e-30 --n-max 2":
        "ec55d54d83789954c8ba03d11de460a0f16cd746026afc2f9150d9b8501d4127",
    "link --qb 0.1 --pb 0.01 --p 10 --n-max 40":
        "fdedd4a931c393c8a51ecfdca44346f5cccdd536a44479adea3bd4d57f3618fd",
    "link --qb 100 --pb 0.5 --p 0.1 --n-max 20":
        "0c4058e9bb924baf2fc8077959c0466772f00df2d22856c4f73ea255aa348fd6",
    # the tolerance is echoed and decides nothing: at 0 and at 1e-13 every
    # row reads true and the exit is 0
    "link --qb 1.05 --pb 0.95 --p 1.05 --n-max 6 --tolerance 0":
        "286d84a40c8f99054e2fe5e4ff4aeedf46a31ee9ffc3ca6a04453303b414f61f",
    "link --qb 1.05 --pb 0.95 --p 1.05 --n-max 6 --tolerance 1e-13":
        "703eb58bf53e07ef44d001e10e4277d220b241502735ba6b9e5c85523714cbb9",
    "link --qb 2 --pb 1 --p -1":
        "730038a39ecc4fd66febf3c3a0ceba6c259fc402a5f58f01b38df3d8f2712871",
    "link --qb 2 --pb 1 --p inf":
        "4c2613b6cd1cc11dc4d94954310ae8e57804f620137fe8c21247b93479ee060b",
    "link --qb 2 --pb 1 --p 1 --n-max -1":
        "a071b00f6b233dc0e2859d61c93c1211772c98c940e45d8c203ed6bd55fb1ebc",
    "limits":
        "e9cac1e44a4fa25cff577ef1fd918bab941948966ec9c552cd1a6739a17235d9",
    "limits --format json --tolerance 1e-12":
        "13674fbf4fd2f3e3c5d827e9d94e9ce3ab4d58724785b773530ef652cc57cdda",
    "--help":
        "99e610ef3202d8f0aa4eda433324e36696cf8edd55836026876b3c37b3aa127c",
    "sf --help":
        "2c7c582041545f5a0155655278f0762481eee36327529a190c089f3ceb15e1fd",
    "spectrum --help":
        "b5f5eee8de71453f9b735ff7957390adfc0b9ce35e6e2427ec00496068a7745d",
    "verify --help":
        "08bd3a2d1d837862e794d2f39e23a819198e171aa6f3aa38310a718cf982636e",
    "link --help":
        "0bd7ffb563012f5735a469dba0b927ef1b4e6d047373408b4d60479d34c2ae7c",
    "limits --help":
        "fabd31a158f48acb7bb88f0ff9e3644326274998fda90308018077207b58ca79",
    "verify --relation nope":
        "b934e972ca73c13171da35b5615a3bed1a066cd572a4f15d45029d502edca9c9",
    "verify --relation q-ha --q 1.1 --p 3 --mu-tilde 0.2":
        "3a1bad57f5c2b276fa4b4410952360d5f7436ed0b1f838ec1aaec6f636856d1b",
    "verify --relation hg --pb 1 --dim 8":
        "d96f413751e1ad6879e2f23c445ab14f69c4e2db5020621786eef25b76cf0168",
    "sf --model harmonic --q 2":
        "afe397b52cc73fa3f58f53466d70590d565d5a42784a1c32874dc2ee0944db61",
    "verify --relation q-ha --q 1.1 --tolerance nan":
        "edf6f6ff892a36da2b789be3653630c55ae98a045ce4be0c7187189daf80b560",
    "verify --relation q-ha --q 1.1 --tolerance -1":
        "28478275c8e65f9ff02ef8361082cbf8f0b167530e7ce94444acb0582fde6dfa",
    "verify --relation q-ha --q 1.1 --margin -1":
        "59f7584c9373604ab88341755bacfad62c92f757015f864f2af2e9940ba9cb32",
    "link --qb 1.1 --pb 1 --p 1 --tolerance nan":
        "edf6f6ff892a36da2b789be3653630c55ae98a045ce4be0c7187189daf80b560",
    "limits --tolerance nan":
        "edf6f6ff892a36da2b789be3653630c55ae98a045ce4be0c7187189daf80b560",
    "verify --relation two-sided --qb 1.1 --pb 1 --mu nan":
        "33536c66dc1171a551d6c6fd5587eeba7df12863a0ee842853d4cfb54b3c67e0",
    "verify --relation two-sided --qb 1.1 --pb 1 --mu inf":
        "74ef6f18c3cbc7ca36f77e9c2deccaf74dcfb079b809df2643eff9d9c0a20814",
    "sf --model jannussis-mu --mu-tilde inf":
        "66fe40811d7f17178ad1bb3a5eee445b9e420721205353d42ef99de9ae665927",
    "link --qb nan --pb 1 --p 1":
        "d2a9e1665eee795d1bb42791b290191e396083174241670efc592de6f73ef989",
    "sf --model arik-coon --q inf --n-max 3":
        "2eac17386362f5169d8fdd21806a59b2211ce5f62b5bd26c1f5ca1ed840984ca",
    "verify --relation q-ha --q inf":
        "2eac17386362f5169d8fdd21806a59b2211ce5f62b5bd26c1f5ca1ed840984ca",
    "verify --relation two-sided --qb 1.1 --pb inf":
        "70160d18e6ee8102670b345bd4f506df5aca223416574b9bb1d0da6d6b836036",
    # h(1) underflows to 0 at mu = 0: an overflow at n = 2, not a division by zero
    "verify --relation two-sided --qb 1e-300 --pb 1 --mu 0":
        "287306afa6018b857b2505d6df066560e7c5bcd6f34174d0ee7e5b361a3f5682",
    "verify --relation hg --q 1e-300":
        "c309f33ef9ed2b7e740e119f698841ba38b89afc5bc91c02beef65ef82190be5",
    "verify --relation hg --q 1e-300 --p 1":
        "e786ab204c8860b44d099aaacb31784a38f4ca90d7260d102ebfba7868be6526",
}


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's own usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv", list(PINS))
def test_cli_bytes_are_pinned(argv, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage to the terminal
    digest = hashlib.sha256(repr(_run(argv.split())).encode()).hexdigest()
    assert digest == PINS[argv]
