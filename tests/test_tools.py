import importlib.util
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def load_tool(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_sampler_rounds_counts_a_batch_that_falls_back():
    # Under a tight set_q the no-offline runs fall back at most steps, so the
    # stacked ladder call is made and counted.
    runs, horizon = 2, 12
    counts = load_tool("sampler_rounds").count(
        str(TOOLS.parent / "configs" / "paper_fig1.cfg"),
        [f"t_horizon={horizon}", "s_len=200", f"num_runs={runs}", 'variants=["ts_no_offline"]',
         "set_q.m_p=10", "set_q.rho=0.8", "max_attempts=5"],
        "run",
    )
    assert counts["steps"] == runs * horizon
    assert counts["rounds"] >= horizon
    assert counts["ladder_calls"] > 0 and counts["ladder_slices"] >= counts["ladder_calls"]
    assert counts["screened_slices"] > 0
