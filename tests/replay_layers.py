"""Time each layer of `gridforge simulate` on the shipped scenario.

Run from the repository root, optionally with the number of repeats
(default 5):

    python tests/replay_layers.py
    python tests/replay_layers.py 9

For the QSL and the RL line model, the script prints the best and the
median in-process wall time over the repeats of each replay layer of
this checkout's code (src/gridforge is put first on the import path),
with one BLAS thread, and for the first three layers the tracemalloc
peak of one more call, untimed:

- simulate: simulate() on the designed controllers, mostly stepping;
  its peak holds the trajectory table it returns;
- rows, one range: _write_rows over the whole table into an in-memory
  buffer, in this process, with no fork; its peak holds that buffer;
- CSV write: trajectory_to_csv, forked ranges included, over the file
  the repeat before wrote; its peak is this process's only, as
  tracemalloc does not see the forked children;
- event log, over a file: write_event_log over an existing events.log,
  right after trajectory_to_csv rewrote the trajectory next to it, as
  the command does on a rerun;
- event log, fresh: write_event_log into a new directory, right after
  trajectory_to_csv wrote the trajectory there.

The benchmark's spans see neither the stepping inside _Segment.run nor
the CSV rows that forked children format, so these layers are timed
here.  A write can wait on the file system (a stall after a large
rewrite comes and goes), which the median shows and the best hides.
The files go to a temporary directory under the current one, so the
file system is the one the command would write to, and it is removed
at the end.  pytest collects only test_*.py files, so it never collects
this one.
"""

import os

# one BLAS thread, set before numpy loads BLAS
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

import dataclasses  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import pathlib  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from gridforge import cli  # noqa: E402

sim = importlib.import_module("gridforge.simulate")


def timed(repeats: int, call) -> list:
    """The wall times of `repeats` calls of call()."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return times


def traced_peak(call) -> int:
    """The tracemalloc peak, in bytes, of one call of call()."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def layers(scenario, out: pathlib.Path, repeats: int) -> tuple:
    """The wall times of each layer, and the peaks of the first three."""
    newcomers = cli._newcomers(scenario)
    _, verdicts = cli._synthesize_for(scenario, newcomers)
    initial = {i: verdicts[i] for i in scenario.initial_topology.ids}
    designs = {params: verdicts[i] for i, params in newcomers.items()}
    calls = {
        "simulate": lambda: sim.simulate(scenario, initial, designs=designs),
        "rows, one range": lambda: sim._write_rows(io.BytesIO(), traj.table),
        "CSV write": lambda: sim.trajectory_to_csv(
            traj, out / "trajectory.csv")}
    traj = calls["simulate"]()
    times = {name: timed(repeats, call) for name, call in calls.items()}
    peaks = {name: traced_peak(call) for name, call in calls.items()}
    sim.write_event_log(traj, out / "events.log")

    def timed_log(directory: pathlib.Path) -> float:
        sim.trajectory_to_csv(traj, directory / "trajectory.csv")
        start = time.perf_counter()
        sim.write_event_log(traj, directory / "events.log")
        return time.perf_counter() - start

    times["event log, over a file"] = [timed_log(out)
                                       for _ in range(repeats)]
    fresh = []
    for k in range(repeats):
        (out / f"fresh{k}").mkdir()
        fresh.append(timed_log(out / f"fresh{k}"))
    times["event log, fresh"] = fresh
    return times, peaks


def main(argv: list) -> int:
    repeats = int(argv[0]) if argv else 5
    if repeats < 1:
        raise SystemExit("repeats must be at least 1")
    base = cli.load_scenario(cli.packaged_scenario_path())
    with tempfile.TemporaryDirectory(prefix="replay_layers-",
                                     dir=".") as tmp:
        for model in (sim.QSL, sim.RL):
            out = pathlib.Path(tmp) / model
            out.mkdir()
            scenario = dataclasses.replace(base, line_model=model)
            times, peaks = layers(scenario, out, repeats)
            for name, wall in times.items():
                peak = (f", peak {peaks[name] / 1e6:.2f} MB"
                        if name in peaks else "")
                print(f"{model} {name}: best {min(wall):.4f} s, "
                      f"median {statistics.median(wall):.4f} s{peak}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
