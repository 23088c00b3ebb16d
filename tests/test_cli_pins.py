"""The CLI's bytes, pinned: exit code, stdout and stderr of each argv.

Each value is the sha256 of repr((exit code, stdout, stderr)) for the argv
its key spells (split on spaces).  The argv cover sf and spectrum for every
model, every verify relation, link and limits, each with its error paths
(missing flags, bad domains, values past double range), plus --help for
the program and each subcommand, an unknown relation, flags a relation
or a model ignores (never echoed by verify), and an impossible tolerance,
margin, mu or mu_tilde.  A refactor that keeps the CLI's output keeps every
hash; a change that moves output on purpose re-pins exactly the argv it
moves.
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
        "bce3b792f2d7d50fde38c441f8d1560bc1405dfaff2342771139b89ccb03a693",
    "spectrum --model arik-coon --q 1.3 --n-max 7 --format json":
        "a0bbef4dd4c4b01746b7b2ba952630d9e9c051ff233d5a2bb8eb734539609276",
    "sf --model biedenharn-macfarlane --q 0.8 --n-max 12":
        "0f9a8ec4e08adcdc390419df29046d19554906ff314ec988b0c0649ff3dcbbb5",
    "spectrum --model biedenharn-macfarlane --q 0.8 --n-max 7 --format json":
        "cdd8b01bf5df947a3ca97067814cadac34c1bb7ee9c9c055b815da05d139a0b5",
    "sf --model cj --q 1.2 --p 0.7 --n-max 12":
        "de95b3fc679bed191e3050b7fb88bcffd4239c6ea4892dc05d2fb3aa9f709f32",
    "spectrum --model cj --q 1.2 --p 0.7 --n-max 7 --format json":
        "074de38d5c784ddcb24def0b93c0ceb3a0d95f7f41ab9028792fb3df050d0ea3",
    "sf --model jannussis-mu --mu-tilde 0.2 --n-max 12":
        "e35690c2548e8b090d1e8a2b0ce001b7b9805068d2d273bf9139e650ecb88dc7",
    "spectrum --model jannussis-mu --mu-tilde 0.2 --n-max 7 --format json":
        "82ad5a9470e9c9f22f43860b773f389a69631d1a97403cbac60ad235940db769",
    "sf --model nonstd-q --q 1.1 --n-max 12":
        "4bc761a4701d3dbcc935f3c8bdbe6bf2e17dd01a746dedc635631c45c16e3f72",
    "spectrum --model nonstd-q --q 1.1 --n-max 7 --format json":
        "dbaaf12d03e8c710e58dd19ae8c29f4300c873a8714b943ae51efec288b10648",
    "sf --model nonstd-qp --q 1.2 --p 0.9 --n-max 12":
        "9ade938bf72a1d26029db20a0a4e42656d8ee6eabd05577430b46f9f11c6aa4d",
    "spectrum --model nonstd-qp --q 1.2 --p 0.9 --n-max 7 --format json":
        "ce063fb2332467dc14e67c044c8033fed08db8d7fa36570b2a5d5327a94fc9f9",
    "sf --model two-sided-equal --qb 1.1 --pb 1.0 --n-max 12":
        "f4e8f327dee54d39569c3e045dbb0e2fca5a86855779ccf0c2f615e2d1d3f528",
    "spectrum --model two-sided-equal --qb 1.1 --pb 1.0 --n-max 7 --format json":
        "b0397ddf382e87bbaa5db26326b844a8aecd830bb0bacccff3f15e9a062abbf3",
    "sf --model arik-coon --q 2 --n-max 1100":
        "d947c58d45a37d598c8ecb1b3151d9b449a660c390e13bfae4b0f4bf12533e19",
    "sf --model arik-coon --q 1e-300 --n-max 3":
        "8c16f4063ee72e3424053141d3320e1b9e5e963c81a4cb1464b3781ac0531ccd",
    "sf --model arik-coon --q 1e300 --n-max 3":
        "c674da1c8ce4eb45abcc86eb99642dd44928aac7dd7df23c0c33a8c9d1ece416",
    "sf --model arik-coon --q -1 --n-max 3":
        "87c9a90d77a6dc055016cb46761c974245cd6456cb6fa7d19a10fdef42b09882",
    "sf --model arik-coon --n-max 3":
        "4d81e85308d7d51efaf64af14488235f3c07176fa9f18917ca00ffc0bacf3b3d",
    "sf --model cj --q 1.1 --n-max 4":
        "f990285ed0358d99bc12dd409e941a72cce127d6827f8118debd5718fb0a7ab5",
    "sf --model cj --q 1.1 --p 1.1000000000011 --n-max 30":
        "8588f308920b207d51a121b8ba6685ba5435d20a2a4a8e79eee79991f754d27e",
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
        "4983345094e4517fac5f9f17afa1fe5da1d2f0971df6e6a623d88600c28ef7a6",
    "sf --model two-sided-equal --qb 1 --pb 0 --n-max 3":
        "b5df1d7f1b85c3a95302e366bf85a6434a421b2638e8e7a60b31ff813375d0f8",
    "sf --model biedenharn-macfarlane --q nan --n-max 3":
        "42b5b5f4160e6f50ef208d7cc2f7d78d7b9d8b02095bd09f70164340327de916",
    "sf --model harmonic --n-max -1":
        "a071b00f6b233dc0e2859d61c93c1211772c98c940e45d8c203ed6bd55fb1ebc",
    "spectrum --model harmonic --n-max -1":
        "a071b00f6b233dc0e2859d61c93c1211772c98c940e45d8c203ed6bd55fb1ebc",
    "sf --n-max 3":
        "f545c2d3deb27a98047ae06056e7da0cd58ec7dae51ae608a02d67a59209f8e7",
    "sf --model nope --n-max 3":
        "349d8e5564501c8acaa286dfff8552b5d0575377a1bf9af39bb8ea5d0dd32fe8",
    "verify --relation q-ha --q 1.05 --dim 8":
        "f9c047586788275c1bc52fb4cc43e553785e3c2565728cfc04e7ecbced552b4d",
    "verify --relation q-ha --q 2 --dim 300":
        "299d9dd88c4ccb919e2662029bc97407b669a4728235ac3003dbcfb34e1800df",
    "verify --relation q-ha --q 0.9 --dim 64 --format json":
        "6147686e21e1f8bfad1ebd8f393b53c96aef8f94cb8d56f071bc96f5277020c2",
    "verify --relation q-ha --dim 8":
        "31e501e04115a829e06de61a3951fccc0f8dcf0a4a65b82908615573b50d18a6",
    "verify --relation qp-ha --q 1.2 --p 0.9 --dim 64":
        "2486f20abdf4c8847ea719b76575f7db047738499e3e359822b77c17ce2ecb79",
    "verify --relation qp-ha --q 2 --p 0.5 --dim 300":
        "958b201b315f499ea7ae1958981ad31c6b40b989364a9403bf7d39b4ffecbae5",
    "verify --relation qp-ha --q 1.2 --dim 8":
        "8f62bc1dea863971b6a65d01f3a4c53d26326d1178b94c7d13e8ac69fee0e66c",
    "verify --relation two-sided --qb 1.1 --pb 0.95 --mu 0.3 --dim 64":
        "4221cc76a93e3c14dc8674b06d3365f7c0b5012077c2e9cf8432ff687f34b7c9",
    "verify --relation two-sided --qb 1.1 --pb 0.95 --mu 0.3 --dim 64 --alt-pairing":
        "27f1656723447b17866563848a97c23d7b26f3410e331980302ec282a44a066e",
    "verify --relation two-sided --qb 1.01 --pb 1 --dim 300 --margin 5":
        "c0047ab40bd8d3128c8973f063124b1922d1e1a2205a5079d5561c1d3272089a",
    "verify --relation two-sided --qb 1.1 --pb -1 --dim 8":
        "79949dc11a2c25d3858cb5f73ca25a091dc914790975036fb2ac54a0201a898c",
    "verify --relation two-sided --qb 1e200 --pb 1 --dim 8":
        "55001bac8b7a3ea26f1202809043165a807d3c64673e1273de402e882728d891",
    "verify --relation hg --q 0.9 --dim 64":
        "7745ef02447a06a474fcaa72659b7f33617db547046b43c993721ab95978c087",
    "verify --relation hg --q 1.2 --p 0.9 --dim 8 --format json":
        "e3ddb8ddffb8956a6c56108a3dfa0dc23755a09b4d2f91980cc16c548fdd7303",
    "verify --relation hg --qb 1.05 --pb 1 --mu -0.2 --dim 300":
        "9b8408703e37c1e313661892ecab0c35e0143bfb3b33f5c0c639950931e6b98d",
    "verify --relation hg --qb 1.05 --dim 8":
        "325c6c876c991d281deafdb1a9a57a68aa18053efe425114f8e805963446d57d",
    "verify --relation commutator-sf --model arik-coon --q 1.3 --dim 64":
        "a7e06a12d97baab34218e1ec74e763d66b36434e90432faeb4322df37dc37412",
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
        "cce40f43bbea1abe9c7f9f602257d2c17739edfa0d67db64e7fc181b21357297",
    "link --qb 0.1 --pb 0.01 --p 10 --n-max 40":
        "fdedd4a931c393c8a51ecfdca44346f5cccdd536a44479adea3bd4d57f3618fd",
    "link --qb 100 --pb 0.5 --p 0.1 --n-max 20":
        "0c4058e9bb924baf2fc8077959c0466772f00df2d22856c4f73ea255aa348fd6",
    "link --qb 2 --pb 1 --p -1":
        "730038a39ecc4fd66febf3c3a0ceba6c259fc402a5f58f01b38df3d8f2712871",
    "link --qb 2 --pb 1 --p inf":
        "4c2613b6cd1cc11dc4d94954310ae8e57804f620137fe8c21247b93479ee060b",
    "link --qb 2 --pb 1 --p 1 --n-max -1":
        "a071b00f6b233dc0e2859d61c93c1211772c98c940e45d8c203ed6bd55fb1ebc",
    "limits":
        "3240939c9f3345cff98ea19ad25d93a731f8571b11985ab14d0837709b5930a1",
    "limits --format json --tolerance 1e-12":
        "14f7e6ab8446890694b27feea8c95fa5f0ab4255150da637e2784fc8a41e7e5e",
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
        "20c9b74a0a2dada2b99227d51a490a2f8a475e094dfaf893e3c6e0e5f46ce9de",
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
