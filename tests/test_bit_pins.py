"""Pinned bits of the float paths.

The structure functions, the X/P bands and the verification residuals
are computed with a fixed sequence of floating-point operations.  These
values (float.hex, and a sha256 of whole bands) were captured before the
per-model work of the level loops was hoisted out of them, and re-pinned
where [m] took its one branch-free form, two-sided-equal its running
sum and the recipe its defining recursion; a rewrite that reorders or
regroups an operation moves the last bits and fails here.
"""

import hashlib
import struct

import pytest

from defosc import (
    arik_coon,
    biedenharn_macfarlane,
    build_ladder,
    build_xp,
    chakrabarti_jagannathan,
    custom_hg,
    harmonic,
    hg_for_two_sided,
    jannussis_mu,
    nonstd_q,
    nonstd_qp,
    sf_eval,
    sf_table,
    two_sided_equal_hg,
    verify_two_sided,
)

LEVELS = (1, 2, 7, 30)
# p = q (1 + 1e-12) puts cj and nonstd-qp next to the removable point q = p
# of [m], where a quotient of differences would cancel.
SINGULAR_P = 1.1 * (1 + 1e-12)

PHI_PINS = {
    "harmonic": (
        harmonic,
        (),
        ("0x1.0000000000000p+0", "0x1.0000000000000p+1",
         "0x1.c000000000000p+2", "0x1.e000000000000p+4"),
    ),
    "arik-coon": (
        arik_coon,
        (1.3,),
        ("0x1.0000000000000p+0", "0x1.2666666666666p+1",
         "0x1.19534efcbd557p+4", "0x1.10cfe242b9fa8p+13"),
    ),
    "biedenharn-macfarlane": (
        biedenharn_macfarlane,
        (0.8,),
        ("0x1.0000000000000p+0", "0x1.0666666666666p+1",
         "0x1.442bce8d972cep+3", "0x1.c0c60526ef20dp+10"),
    ),
    "cj": (
        chakrabarti_jagannathan,
        (1.2, 0.7),
        ("0x1.0000000000000p+0", "0x1.e666666666666p+0",
         "0x1.c01b152f3c2d9p+2", "0x1.dac0a93f82a0ep+8"),
    ),
    "cj-singular": (
        chakrabarti_jagannathan,
        (1.1, SINGULAR_P),
        ("0x1.0000000000000p+0", "0x1.199999999a347p+1",
         "0x1.8cd464dc27c85p+3", "0x1.dbe48dd48d553p+8"),
    ),
    "jannussis-mu": (
        jannussis_mu,
        (0.3,),
        ("0x1.89d89d89d89d8p-1", "0x1.4000000000000p+0",
         "0x1.2108421084210p+1", "0x1.8000000000000p+1"),
    ),
    "nonstd-q": (
        nonstd_q,
        (1.7,),
        ("0x1.35b16a57418a0p-2", "0x1.4e2096e4fcf5ap-4",
         "0x1.8c42fed3a8ccdp-19", "0x1.2250886a1bf55p-89"),
    ),
    "nonstd-qp": (
        nonstd_qp,
        (1.4, 0.9),
        ("0x1.abc452e9affe0p-2", "0x1.50d595071e7c5p-3",
         "0x1.5d3e3ed714170p-15", "0x1.b8954e8a7590ap-74"),
    ),
    "nonstd-qp-singular": (
        nonstd_qp,
        (1.1, SINGULAR_P),
        ("0x1.d1745d1747d13p-1", "0x1.d1745d174dd08p+0",
         "0x1.9745d1747e534p+2", "0x1.b45d17467660bp+4"),
    ),
    "two-sided-equal": (
        two_sided_equal_hg,
        (1.2, 0.9),
        ("0x1.b01b01b01b01bp-1", "0x1.2cd9db4ba12f6p+0",
         "0x1.5bcd1d5524c14p+0", "0x1.5bfab385b3b7bp+0"),
    ),
    "recipe-two-sided-constant-mu": (
        lambda: custom_hg(hg_for_two_sided(1.05, 0.95, 0.3)),
        (),
        ("0x1.f7c4460d893e9p-1", "0x1.94a4b9e8c1a86p+0",
         "0x1.00bf6999ac8a5p+0", "0x1.45395f6c0bbd6p-13"),
    ),
    "recipe-two-sided-per-level-mu": (
        lambda: custom_hg(hg_for_two_sided(1.05, 0.95, lambda n: 0.2 / (1 + n))),
        (),
        ("0x1.e0253dbf4b1d2p-1", "0x1.6102c76851d76p+0",
         "0x1.85ec584901a6cp-1", "0x1.38a244c0801d2p-13"),
    ),
}

# (row, column) of the two-row bands x = (<n+1|X|n>, <n|X|n+1>) and p of P/i
BAND_ENTRIES = ((0, 0), (0, 5), (1, 3), (1, 14))
X_PINS = ("0x1.36bb96554a826p+0", "0x1.28d1fb9faf3fep+1",
          "0x1.9b87c859a10e8p-3", "0x1.fdc5fd28bbceep-11")
P_PINS = ("0x1.7e70b9068316bp-1", "0x1.01ecc7cfc3515p-3",
          "-0x1.b978894d26663p-1", "-0x1.bdae63ace44a3p-1")
# sha256 of every byte of x and p at dim 64, same model and ratio
BANDS_SHA256 = "1ead9a3e3aa333b9edf9fd1d34f3fa09085c24b22092f6907b791e32628abfb5"


@pytest.mark.parametrize("name", list(PHI_PINS))
def test_phi_bits_are_pinned(name):
    constructor, args, pins = PHI_PINS[name]
    model = constructor(*args)
    table = sf_table(model, max(LEVELS))
    assert tuple(table[n].hex() for n in LEVELS) == pins
    assert tuple(sf_eval(model, n).hex() for n in LEVELS) == pins


# sha256 of the packed doubles of sf_table(two_sided_equal_hg(Q, 1), 5000);
# for Q > 1 the terms' powers overflow from some k on (Q = 2: k = 512)
TWO_SIDED_EQUAL_SHA256 = {
    1.0001: "b63ecdad4037881dc9b2e439e1809acfc0c4ca41d60cd4aa15c604b621ab2793",
    1.5: "7fb3ae20fb2bdb3516e39ee905231c709d4af08bf9a2979bcb76a15fa9a1cb74",
    2.0: "974e373ad8d4ef7e4ca512ce67bbf0285107a941fccafa3093e558c192395582",
    4.0: "61b654f22679aa0b56ed094f49f877d129c38f6fa593159ebe70261f6ac83f59",
}


@pytest.mark.parametrize("ratio", list(TWO_SIDED_EQUAL_SHA256))
def test_two_sided_equal_bits_past_the_overflow_are_pinned(ratio):
    model = two_sided_equal_hg(ratio, 1.0)
    table = sf_table(model, 5000)
    digest = hashlib.sha256(struct.pack(f"{len(table)}d", *table)).hexdigest()
    assert digest == TWO_SIDED_EQUAL_SHA256[ratio]
    assert sf_eval(model, 5000) == table[5000]


def test_xp_band_bits_are_pinned():
    rep = build_xp(build_ladder(nonstd_qp(1.3, 0.8), 16), 1.3 / 0.8)
    assert tuple(rep.x[i, j].hex() for i, j in BAND_ENTRIES) == X_PINS
    assert tuple(rep.p[i, j].hex() for i, j in BAND_ENTRIES) == P_PINS
    rep = build_xp(build_ladder(nonstd_qp(1.3, 0.8), 64), 1.3 / 0.8)
    assert hashlib.sha256(rep.x.tobytes() + rep.p.tobytes()).hexdigest() == BANDS_SHA256


def test_two_sided_residual_bits_are_pinned():
    report = verify_two_sided(1.05, 0.95, 0.3, dim=64)
    assert report.max_abs_residual.hex() == "0x1.5ab0c35f4573ep-51"
