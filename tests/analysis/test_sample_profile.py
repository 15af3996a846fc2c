"""``tools/sample_profile.py`` (PR 21): the sampler attributes samples to
``repro`` functions, and its ``--smoke`` mode runs a real workload —
all of it, or the ops ``--match`` keeps, with ``--gc`` logging the
collector per pass, plan reuse printed per pass and ``--cold`` turning
it off."""

import gc
import re
import signal
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "tools"))

import sample_profile  # noqa: E402
from repro.kv import codec  # noqa: E402


def test_sampler_charges_the_innermost_repro_frame():
    sampler = sample_profile.Sampler()
    row = codec.encode_row(tuple(range(40)))
    deadline = time.process_time() + 0.15
    with sampler.running():
        while time.process_time() < deadline:
            codec.decode_row(row)
    assert signal.getsignal(signal.SIGPROF) in (signal.SIG_DFL, None)
    assert sampler.total >= 20  # 150 ms of CPU at 1 ms
    (name, self_share, cum_share), *_ = sampler.rows(1)
    assert name == "kv/codec.py:decode_row"
    assert 0.5 < self_share <= cum_share <= 1.0


def test_smoke_mode_profiles_a_workload(capsys):
    assert sample_profile.main(["--smoke", "--top", "5"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("# analytic_local seed 12:")
    # the answer check planned every shape: the pass binds
    assert re.fullmatch(
        r"# shapes pass 0: [1-9]\d* bound, 0 planned \(100\.0% reused\)", out[1]
    ), out[1]
    assert len(out) >= 4 and all("%" in line for line in out[3:])


def test_cold_mode_plans_every_statement(capsys):
    assert sample_profile.main(["--smoke", "--top", "5", "--cold"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert re.fullmatch(
        r"# shapes pass 0: 0 bound, [1-9]\d* planned \(0\.0% reused\)", out[1]
    ), out[1]


def test_smoke_mode_with_match_and_gc(capsys):
    callbacks = list(gc.callbacks)
    args = ["--smoke", "--top", "5", "--gc", "--match", "D.cause"]
    assert sample_profile.main(args) == 0
    assert gc.callbacks == callbacks
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("# analytic_local seed 12:")
    # the pass starts with the benchmark's own full collection
    assert re.fullmatch(
        r"# gc pass 0: collections \d+/\d+/[1-9]\d* \(gen 0/1/2\), "
        r"\d+\.\d ms in the collector, \d+ objects collected",
        out[1],
    ), out[1]
    assert out[2].startswith("# shapes pass 0: ")
    assert out[3].split() == ["self", "cum", "function"]
    with pytest.raises(SystemExit, match="no op of analytic_local contains"):
        sample_profile.main(["--smoke", "--match", "no such text"])
