"""Golden sha256 values of seeded sampler, simulation and filter output.

Recorded with the per-draw sequential samplers, where draw i of
``sample_ensemble(filt, N, seed)`` was exactly
``backward_sample(filt, substream(seed, i))``.  A refactor that keeps
the RNG draw order and the arithmetic keeps these bytes.  The UE
ensemble is held to the single-path sampler within a per-matrix
relative 1e-12 instead: a stack of UE paths runs its recursion densely
in coordinates whitened by the filter's factor and refactors each
Psi_t = G_t' Phi_t G_t, while one path rotates its rows into the factor
with the Givens chain on Python floats.

Re-recorded once when the passes stopped making per-step LAPACK calls
(the BB backward pass in closed form, back-substitution over stacks,
``math.hypot`` in the Givens loop) and the mixture sweep began drawing
its indicators and imputed rows as one block each.  Against the record
before it, every input but the mixture traces matched within 9.4e-16
relative per matrix; the mixture traces changed with the draw order.

The two BB single-path values were re-recorded once more when the BB
pass began summing its two linear recursions by recursive doubling
instead of a loop over t: they moved by at most 8.1e-16 relative per
matrix, the BB ensembles still equal their single paths bit for bit,
and every other value kept its bytes.

Re-recorded once more when ``tri_solve_stack`` became the package's one
triangular solve and ``simulate`` began taking its precision path from
the model's backward sampler.  The three single-path values moved by at
most 2.4e-16 relative per matrix (F_T = W_T G_T^{-1} is a
back-substitution now, not a LAPACK solve), and the BB ensembles still
equal their single paths bit for bit.  The ``simulate`` returns at q = 3
and 5 moved by at most 2.8e-15 relative per row (one stacked solve for
the whitened residuals, and r_t = R_{t-1}' w_t summed on Python floats);
those at q = 1 kept their bytes.  Every ``simulate`` precision path
changed, because it now follows the model's smoothed law given the
returns instead of one-step prior draws.  The mixture traces, the grid
surface and the log forecasts kept their bytes.

The grid surface and the log forecasts were re-recorded once more when
the forecast terms began to come from G's diagonal (log(1 + s_t / lam)
= log|D_t| - log|lam D_{t-1}|) instead of a back-substitution for s_t.
The surface moved by at most 3.8e-16 relative per entry (1.1e-13
absolute), the UE log forecasts by at most 9.6e-16 relative and the
unmatched BB ones by at most 5.6e-16 (3.6e-15 absolute each).  Every
other value kept its bytes.

Re-recorded once more when the BB df path became the closed form
k_t = k_inf + beta^t (k_0 - k_inf) in place of a loop over t, and a UE
path began drawing its increments as rows of N(0, I) at every q.  The
unmatched BB k_t moved by at most 1.8e-16 relative; with them the
unmatched BB single paths (which the BB ensemble still equals bit for
bit) moved by at most 3.0e-16 relative per matrix, its log forecasts by
at most 2.3e-16 relative (1.8e-15 absolute), and the BB ``simulate``
returns at q = 1, 3 and 5 by at most 1.2e-15 relative per row and their
paths by at most 2.0e-15 relative per matrix.  The q = 1 UE ``simulate``
path is a new draw of the same law (z^2 ~ chi2_1, where the stream once
held a discarded normal and a chi-square draw per step); its returns
kept their bytes.  Every other value kept its bytes.

Re-recorded once more when the BB pass began carrying its squared
diagonal in coordinates whitened by G_t (c_t = diag(F_t G_t)) in place
of a power-of-two scaling per lane.  The BB single paths moved by at
most 7.5e-16 (matched) and 8.2e-16 (unmatched) relative per matrix, and
the BB ensembles still equal them bit for bit.  The BB ``simulate``
precision paths moved by at most 1.4e-15, 1.5e-15 and 6.7e-16 relative
per matrix at q = 1, 3 and 5; their returns kept their bytes.  Every
other value kept its bytes.

``GOLDEN_CLI`` holds the sha256 of every file the seven CLI commands
write on a short simulated series, ``meta.json`` aside (it records a
wall time and the run's paths).  It pins the table format itself: the
header, the row order, integers written as integers and floats in
Python's shortest round-trip form, and ``\\r\\n`` line ends.  It was
recorded with the ``csv.writer`` tables, before the CLI got its one
column writer.
"""

import hashlib

import numpy as np
import pytest

from wishartsv.cli import run_command
from wishartsv.compare import MixtureConfig, mixture_gibbs
from wishartsv.filtering import ReturnsSeries, forward_filter, grid_search, simulate
from wishartsv.randsamp import substream
from wishartsv.smoother import backward_sample, sample_ensemble
from wishartsv.volproc import BBHyper, UEHyper, match_ue_to_bb

SEED, N_DRAWS = 11, 8

GOLDEN_SINGLE = {
    "ue": "b1832e239bcb3982fd391e3c1a71515228b41592db419cc890e57834a478bf06",
    "bb": "ebc3d7fb8230a0c4e5bb24da36bf4a6a77b06b7227a91271ecbec504ed3d8a75",
    "bb-unmatched": "5e8d84d0b8eb4f64dd03922c0f2aeec60a1d875787f94ba3bab5cda4826d470c",
}
GOLDEN_MIXTURE = {  # degenerate: (alpha trace, z trace)
    True: (
        "18315131663cfa120084cf9d8592f2d36081e92354a1810619848b3f6e1e2e58",
        "1c03ff1964c9241ea3ae2662172180c1624f0ed8368d6659b71760b374ee5bfc",
    ),
    False: (
        "444f5f57bf2e7e903f7a39afe8ea65824079a71dcb8e3b2ee190aec15e4a5858",
        "ec768b630e25468aae5621747729a910f3178c2f7222fe6e65d2df8bd71b0750",
    ),
}
GOLDEN_SIMULATE = {  # (model, q): (returns, precision path)
    ("ue", 1): (
        "eaafc54b7c7bd25768b68ce1ae2e648fffa8c67a926cccb98c2e31e23b94179f",
        "d4b137235ba626359f48aa684afdadc5729cb2f7fae57aaea4599caf6cc108c9",
    ),
    ("bb", 1): (
        "c0bbd68f4e1fd0b4ac3f98ef34f9e02f32ab4722183fcc9c10fc96e693e9ae91",
        "fbb729452d9d4208c65d8246531ab5e2bf6fea7a95c7981fc7c345c907417985",
    ),
    ("ue", 3): (
        "fba8b03d36f62d3791049ba794302468384171ab848aad185de0652175b1130a",
        "4a1e762fe0285824e5503c65c1fc234ec1221efd82e6604eeefd9c016fd7cbce",
    ),
    ("bb", 3): (
        "78376d846a3a7d84a12b2738867a3d6b3d1a7c49fdb89bd00c95538b293ef794",
        "173cde5c728694f5c64cea4cd8ffc66d37c56cc2dd0b9eb15a0c55bdf7719b08",
    ),
    ("ue", 5): (
        "d0b0899e767d1d6ad01040b24c8a5f55045b4f30c03a8c49764ebc64e199f796",
        "2c2443cc3be7b1843f575b4b20535b1d4a05ad3c43574db7a53b4c362187eb49",
    ),
    ("bb", 5): (
        "737813794dcfd42ad38a986bc02d94948546d23396b180cbf125775fe159e877",
        "b964ffa4d0c31afc9f0025491cac684fe3662859dfa51d7d9fe325f0d2b6e0df",
    ),
}
GOLDEN_GRID = "1e657af523ad5277d4257637e6e1f0f3f738406e4d6bf2d98718acbe000ff984"
GOLDEN_LOG_FORECAST = {
    "ue": "62f3a94c74286564fc62fb6e20f900ea459acc3e3722755d0a75bf02c376cd40",
    "bb-unmatched": "139b77bbb0e5f37683545858f0c82b131b75cdb33773d281c43ae8b4a12372d3",
}


def sha(a):
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


def setting(case):
    """The filter output at q = 3, T = 50."""
    data = ReturnsSeries(np.random.default_rng(5).standard_normal((50, 3)))
    ue = UEHyper(q=3, k=1, n=6.0, lam=0.85, d0=np.eye(3))
    if case == "ue":
        return forward_filter(data, ue)
    # the unmatched prior df makes k_t, and so the chi-square df, vary with t
    bb = match_ue_to_bb(ue) if case == "bb" else BBHyper(q=3, k=1, beta=0.8, b=0.85, k0=20.0, d0=np.eye(3))
    return forward_filter(data, bb)


def scale_matrix(q):
    """A dense SPD prior scale, so every entry of the factor enters."""
    a = np.random.default_rng(q).standard_normal((q, q))
    return a @ a.T + np.eye(q)


@pytest.mark.parametrize("case", sorted(GOLDEN_SINGLE))
def test_single_path_samplers(case):
    filt = setting(case)
    single = np.array([backward_sample(filt, substream(SEED, i)) for i in range(N_DRAWS)])
    assert sha(single) == GOLDEN_SINGLE[case]


@pytest.mark.parametrize("case", ["bb", "bb-unmatched"])
def test_bb_ensemble(case):
    assert sha(sample_ensemble(setting(case), N_DRAWS, SEED)) == GOLDEN_SINGLE[case]


def test_ue_ensemble_matches_single_paths():
    filt = setting("ue")
    ens = sample_ensemble(filt, N_DRAWS, SEED)
    for i in range(N_DRAWS):
        single = backward_sample(filt, substream(SEED, i))
        err = np.abs(ens[i] - single).max(axis=(1, 2)) / np.abs(single).max(axis=(1, 2))
        assert err.max() <= 1e-12


@pytest.mark.parametrize("degenerate", [True, False])
def test_mixture_traces(degenerate):
    # criterion 10's setting, shortened to 200 iterations
    data = ReturnsSeries(np.random.default_rng(10).standard_normal((10, 2)))
    ue = UEHyper(q=2, k=1, n=5.0, lam=0.8, d0=np.eye(2))
    cfg = MixtureConfig(a0=1.0, b0=1.0, iterations=200, burn_in=0, seed=1001)
    tr = mixture_gibbs(data, ue, match_ue_to_bb(ue), cfg, degenerate=degenerate)
    assert (sha(tr.alpha), sha(tr.z)) == GOLDEN_MIXTURE[degenerate]


@pytest.mark.parametrize("model, q", sorted(GOLDEN_SIMULATE))
def test_simulate(model, q):
    if model == "ue":
        hyper = UEHyper(q=q, k=1, n=q + 2.0, lam=0.85, d0=scale_matrix(q))
    else:
        # unmatched, so the prior df beta k_{t-1} varies with t
        hyper = BBHyper(q=q, k=1, beta=0.9, b=0.85, k0=q + 15.0, d0=scale_matrix(q))
    data, phis = simulate(hyper, 40, seed=q)
    assert (sha(data.returns), sha(phis)) == GOLDEN_SIMULATE[model, q]


def test_grid_surface():
    data = ReturnsSeries(np.random.default_rng(5).standard_normal((50, 3)))
    surface = grid_search(data, scale_matrix(3), [2.5, 6.0, 10.0], [0.7, 0.85, 0.95])[2]
    assert sha(surface) == GOLDEN_GRID


@pytest.mark.parametrize("case", sorted(GOLDEN_LOG_FORECAST))
def test_log_forecast(case):
    assert sha(setting(case).log_forecast) == GOLDEN_LOG_FORECAST[case]


# command [model]: (config beyond CLI_CFG, {file: sha256})
GOLDEN_CLI = {
    "simulate ue": ({"T": 30, "model": "ue"}, {
        "results.json": "9da8d009494d7f6ba3f924041d59918f533129cf400709269f5aea7a6b6c200c",
        "returns.csv": "736b78144127eefbdcdd15bf0379365732c900620a92092dd99d4a731b30fad8",
        "true_path.csv": "be784d1a568ab99b75f99ac7bf763ac7d1ae730d3474ce57f73576f36f35e4e9",
    }),
    "simulate bb": ({"T": 30, "model": "bb"}, {
        "results.json": "da8ff2c8aa053ef9c238a1f0f98fbe95c718ada927a0167d6f3a9c4f141afde5",
        "returns.csv": "736b78144127eefbdcdd15bf0379365732c900620a92092dd99d4a731b30fad8",
        "true_path.csv": "59c67b1ce7a712a9fad37f6d21c32fb73534c71a49f0bb7884f83484943a51f5",
    }),
    "filter": ({"model": "matched"}, {
        "filtered_bb.csv": "2fb8a68453118375ee08491a163181c512c31a3c7c2848b9cb209cca4ee1bd0f",
        "filtered_ue.csv": "2fb8a68453118375ee08491a163181c512c31a3c7c2848b9cb209cca4ee1bd0f",
        "results.json": "a7362fafdb8c6c204b4164b111c65822ed792f6444db1ddb49688a1e33e5ab84",
    }),
    "smooth": ({"model": "matched", "draws": 4}, {
        "correlations_bb.csv": "3becbb12752a1b5d6d3f0cc0ec5a6b2aadbb12df8d2cc4cefe504a96c723216a",
        "correlations_ue.csv": "78eac05b55037aa87d4425a58f2ceded02731ddcfe5f37336bb19c0c60f50b74",
        "results.json": "0c9c2e9c7ba09a8c0a0e9d161da212649659b616153de0447ac3d4922740bf59",
    }),
    "ppc": ({"model": "matched"}, {
        "ppc_bb.csv": "436e5ff743829be7a4aa8db935d9fe1bf5567579ddc1eda12bf52543a90cf92c",
        "ppc_ue.csv": "436e5ff743829be7a4aa8db935d9fe1bf5567579ddc1eda12bf52543a90cf92c",
        "results.json": "83fc0fd66118f1e63d7447c85c21435eb24666a2ba5a3f6f4bf36184c1552bc7",
    }),
    # integer n stay integers in the table, float n stay floats
    "grid-search": ({"n_grid": [3, 5.5, 8], "lambda_grid": [0.7, 0.85, 0.95]}, {
        "results.json": "377bac3d267da1275b436cee788190c103e961e4643b3556adf095cea0f02b48",
        "surface.csv": "caadf6e980eab0c6d97b0d8eeb3ce440941d5bf94daa35a56feb6963a8285d46",
    }),
    "compare-plr": ({"draws": 4}, {
        "results.json": "94b14f69b643fbc2b1099bf97bfdae8659f6492a054c0e4af8f72ad4ac7b4140",
    }),
    "compare-mixture": ({"draws": 40, "burn_in": 10, "batches": 5}, {
        "alpha_trace.csv": "4a388f6bbc134dd9daa7d00dc3499798175a48c2afe7b4b496091dd5a2ba380c",
        "results.json": "396de58d0950a1fa28745b3d61f440ae4bb68448e7abec9b9d026cc1c1798f93",
    }),
}
CLI_CFG = {"q": 3, "n": 6.0, "lambda": 0.85, "seed": 3}


def cli_files(outdir):
    """{name: sha256} of a run's output files, ``meta.json`` aside."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in outdir.iterdir() if p.name != "meta.json"}


@pytest.fixture(scope="module")
def cli_data(tmp_path_factory):
    """A q = 3, T = 30 UE series written by ``simulate``."""
    out = tmp_path_factory.mktemp("cli-data")
    run_command("simulate", {**CLI_CFG, "T": 30, "model": "ue", "out": str(out)})
    return out / "returns.csv"


@pytest.mark.parametrize("case", GOLDEN_CLI)
def test_cli_output_bytes(case, cli_data, tmp_path):
    extra, golden = GOLDEN_CLI[case]
    run_command(case.split()[0], {**CLI_CFG, "data_csv": str(cli_data), **extra, "out": str(tmp_path)})
    assert cli_files(tmp_path) == golden


def test_simulate_of_no_step_writes_a_header_only(tmp_path):
    run_command("simulate", {**CLI_CFG, "T": 0, "out": str(tmp_path)})
    assert (tmp_path / "returns.csv").read_bytes() == b"t,r1,r2,r3\r\n"
    assert (tmp_path / "true_path.csv").read_text().count("\n") == 2
