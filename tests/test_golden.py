"""Golden outputs: the exact bytes and values the package prints.

Criterion 11 compares two runs of the same code, so a reordered sum that
changes the last bit of a value would pass it.  These digests and reprs
pin the values themselves: the sweep CSVs written by `trimode sweep`, the
figure files written by `trimode figures`, and the 15 criteria of
hand-built mixed states, which take the cofactor path.  A change to any
of them changes what the package prints and must be deliberate.
"""

import contextlib
import hashlib
import io

import numpy as np
import pytest

from trimode import Couplings, MomentState, Sign, evaluate_all, moments_at
from trimode.cli import main

#: sha256 of `trimode sweep --out`, by (kappa1, kappa2, tau_max, sign), on
#: the default 301-point grid from tau 0.
SWEEPS = {
    (1.2, 1.0, 3.0, "plus"): "088b077e72a924c623944c75b41c840c9fa25e88d4c96914991b21762b88b8c8",
    (1.2, 1.0, 3.0, "minus"): "5772fadac1be81567dd494f3e54fd92657712b327658cec1a732b9c6c3fa40e6",
    (1.2, 1.0, 15.0, "plus"): "c6b01339493cfc40b05b32094a915c2ab45b2dc62acb6e90a6cee3e105270392",
    (1.2, 1.0, 15.0, "minus"): "3190c7a20d2cf19c84c3b57ab6856447d5ba6db8c96abfbc34269e0e75a75c87",
    (1.0, 1.8, 3.0, "plus"): "eb38dea5bad1c9c28a992c71e57c9ca93ddea27ac7d2f1c305a9dca7fa70a645",
    (1.0, 1.8, 3.0, "minus"): "6ced095919dafb2f0f100abf76278457c7e1a2e26154c67ed6c80ea9c4acb009",
    (1.0, 1.8, 15.0, "plus"): "914c1cccdc73cf8b6cd9a78306872924a493dad7242b9eeaab7eb2885dc702ec",
    (1.0, 1.8, 15.0, "minus"): "76185f6b29032bd90a783371e4d2f6857bae46bc1e0370ea4c9914ac75526ba2",
    (1.0, 1.0, 3.0, "plus"): "7d093fe10316795dcb56eaf04510250ba21c48ed4d6d415ab43b3b14980947d8",
    (1.0, 1.0, 3.0, "minus"): "5da5921d1517589cc0a83175625db1a27c8163c2acdc02592435fa3a955fbf57",
    (1.0, 1.0, 15.0, "plus"): "82b74f332dcc044ddd566c321d565dc8cb52b32a22c874d6e322088d2ca446af",
    (1.0, 1.0, 15.0, "minus"): "d0284a9ac4758dbcd8519b0cbed710619c0448b2a2b648435069980be6ee296b",
}

#: sha256 of every file `trimode figures --out` writes, by (sign, name).
FIGURES = {
    ("plus", "fig1.csv"): "b28f519f63036bf0f2a62f7958615cac1142a2269ded2ca0cc6c90fb2ff0762c",
    ("plus", "fig1_params.txt"): "d26150aff89cee05f87a2d21706717d0816b6ed1d5527e37183e34dd0465547b",
    ("plus", "fig2.csv"): "e8604b83275d52e30bcd2de4f371b57707e891a217bea05bd52b70ce923b9d33",
    ("plus", "fig2_params.txt"): "6c897c7ac403240164034fd9b39c5a755f4c8f222b8106bda2d7ecb7ac810589",
    ("plus", "fig3.csv"): "58882fa0424b1aa1529ea976efaaf18ad28243a9ebb3609d83bfd50fa0fe69a7",
    ("plus", "fig3_params.txt"): "2b2743a6b11a8e3e4d80aca912fe7e35b3000bcab9af486fcd46d2bb0d086aab",
    ("plus", "fig4.csv"): "3516af114a329c93c280be18edacc0cac15b74cbf9dc8d62053c47ba22b89c2f",
    ("plus", "fig4_params.txt"): "c7029582785dfd2ac1dfb0e39bf4593274583132c96958e5c9142f074a786358",
    ("plus", "fig5.csv"): "1cdb1d6a6e6d9382c2a046f43d1d364cffb9cb56ee91dc656d526307b61668b6",
    ("plus", "fig5_params.txt"): "3b2dc1057b1a5aabd9e1c8925d62890f5a5814689bd81551c059d28cd258161c",
    ("minus", "fig1.csv"): "9990189f044cce98d2b59c9309ac42fdd42c9e227237b1b3883da032b3898f3c",
    ("minus", "fig1_params.txt"): "2aec64ae737a32dbd9db615e922929c48a2cde5911b84a06e2c327b8a3adbdf7",
    ("minus", "fig2.csv"): "b2d7b4aac26e9536677d9c08b45691d1a0c4af1f1a3e8b948165efd4dbeb8400",
    ("minus", "fig2_params.txt"): "98bb1d192b40f0f6bf49373d202d9f21f87e0aa33859026aea7ce639a61c12a0",
    ("minus", "fig3.csv"): "82ae81bb4a647104e0faccf4ce6fd60630bf30610473e40bb0e3fec6311f00fb",
    ("minus", "fig3_params.txt"): "3315791434d74f26370b703d8fcfb7d0ea0598be8c09688c298be7efeb83ec95",
    ("minus", "fig4.csv"): "4777ec267ae6a706b2b927cb9f9dd0124c2c9857190c1acc25dbe6416020acaa",
    ("minus", "fig4_params.txt"): "4054a371ecfbfd07e014f2bae3f4c5cee2456d5f65bc051b84b1d6902e5e158b",
    ("minus", "fig5.csv"): "9d34d7ade3c7427b92e342856d1885c581d491bf1d8c3e2b81ddab6ed89e82e8",
    ("minus", "fig5_params.txt"): "67e6cff0028f357acac104b525021687a02a22d63bfcf37bc4b3b43c840e8e95",
}

#: repr of the 15 criteria of C = 0.9 M M' + 0.1 I for both blocks, where
#: M M' are the blocks moments_at gives, by (kappa1, kappa2, t, sign).
MIXED = {
    (1.2, 1.0, 1.3, Sign.PLUS): (
        "4.594777867675357", "2.446795782009779", "4.572400106351837",
        "3.464486698391278", "1.0777928019006806", "3.4995689357608057",
        "1.351703570532813", "0.33474598971750025", "0.5855346217489945",
        "0.12087440283737304", "1.6101606470658005", "1.4652152334731088",
        "0.4379204755549499", "3.570616941031732", "2.001102078476128",
    ),
    (1.2, 1.0, 1.3, Sign.MINUS): (
        "4.594777867675357", "2.446795782009779", "4.572400106351837",
        "3.464486698391278", "1.0777928019006806", "3.4995689357608057",
        "1.351703570532813", "0.33474598971750025", "0.5855346217489945",
        "34.531918915257144", "1.6101606470658005", "1.4652152334731088",
        "3.6968574581048688", "3.570616941031732", "2.001102078476128",
    ),
    (1.2, 1.0, 5.0, Sign.PLUS): (
        "631.4107873575624", "1099.5117360967183", "698.908527307653",
        "115.20645526653294", "583.4702349222587", "182.84559556824533",
        "1.394771291140187", "0.5151465341525515", "0.32027190132287164",
        "0.05209833296319472", "1.845658026776889", "3.0032198447210905",
        "0.19719490890757385", "1.8476820296168972", "3.0128215214521843",
    ),
    (1.2, 1.0, 5.0, Sign.MINUS): (
        "631.4107873575624", "1099.5117360967183", "698.908527307653",
        "115.20645526653294", "583.4702349222587", "182.84559556824533",
        "1.394771291140187", "0.5151465341525515", "0.32027190132287164",
        "1261.5048350403104", "1.845658026776889", "3.0032198447210905",
        "3.827566873479841", "1.8476820296168972", "3.0128215214521843",
    ),
    (1.0, 1.8, 1.3, Sign.PLUS): (
        "1.893672750409714", "3.179178685482581", "3.62955694897267",
        "1.1503684454189553", "2.7120828653941906", "3.306296452326385",
        "1.2891974560221073", "0.616096252958056", "0.33795014577160076",
        "0.22488160223000336", "1.2794688070370481", "1.219627266984848",
        "0.8070987468501996", "2.285178518756731", "3.8180652017688885",
    ),
    (1.0, 1.8, 1.3, Sign.MINUS): (
        "1.893672750409714", "3.179178685482581", "3.62955694897267",
        "1.1503684454189553", "2.7120828653941906", "3.306296452326385",
        "1.2891974560221073", "0.616096252958056", "0.33795014577160076",
        "9.454610184513896", "1.2794688070370481", "1.219627266984848",
        "3.669413238368917", "2.285178518756731", "3.8180652017688885",
    ),
}


def _digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("key", list(SWEEPS), ids=repr)
def test_sweep_csv_bytes(key, tmp_path):
    kappa1, kappa2, tau_max, sign = key
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--kappa1", repr(kappa1), "--kappa2", repr(kappa2),
                 "--tau-max", repr(tau_max), "--sign", sign, "--out", str(out)]) == 0
    assert _digest(out) == SWEEPS[key]


@pytest.mark.parametrize("sign", ["plus", "minus"])
def test_figure_bytes(sign, tmp_path):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["figures", "--sign", sign, "--out", str(tmp_path)]) == 0
    written = {(sign, path.name): _digest(path) for path in tmp_path.iterdir()}
    assert written == {key: value for key, value in FIGURES.items() if key[0] == sign}


@pytest.mark.parametrize("key", list(MIXED), ids=repr)
def test_mixed_state_values(key):
    kappa1, kappa2, t, sign = key
    pure = moments_at(Couplings(kappa1, kappa2), t)
    m = MomentState(0.9 * pure.cx + 0.1 * np.eye(3), 0.9 * pure.cy + 0.1 * np.eye(3))
    assert m.rows is None
    assert tuple(repr(v) for v in evaluate_all(m, t, sign).values()) == MIXED[key]
