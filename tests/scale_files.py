"""Time reading a 100,000-unit scenario and its controller bundle.

Run from the repository root, optionally with the number of repeats
(default 5):

    python tests/scale_files.py
    python tests/scale_files.py 9

The script writes, to a temporary directory that it removes at the end,
a scenario of 100,000 units of 4 types (the first four units of the
packaged scenario, repeated in turn) joined in a chain of lines, as
compact JSON, and its bundle as `synth` writes it: bundle_to_json of the
four types' synthesize_all designs, each unit given its type's
controller, indented.  It then prints the best in-process wall time,
over the repeats, of this checkout's code (src/gridforge is put first on
the import path), with one BLAS thread, of:

- json.load of the scenario file and of the bundle file;
- parse_scenario of the loaded scenario payload;
- load_bundle of the bundle file (its own json.load included) against
  the parsed scenario's grid.

Writing the files is not timed.  pytest collects only test_*.py files,
so it never collects this one.
"""

import os

# one BLAS thread, set before numpy loads BLAS
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

import json  # noqa: E402
import pathlib  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from gridforge import cli  # noqa: E402
from gridforge.model import MicrogridTopology  # noqa: E402
from gridforge.synthesis import synthesize_all  # noqa: E402

UNITS = 100_000
TYPES = 4


def write_files(directory: pathlib.Path) -> tuple:
    """The paths of the scenario and the bundle, written to directory."""
    packaged = json.loads(cli.packaged_scenario_path().read_text())
    types = [{k: v for k, v in dgu.items() if k != "id"}
             for dgu in packaged["dgus"][:TYPES]]
    payload = {
        "sigma_bar": packaged["sigma_bar"], "t_end": 1.0,
        "dgus": [{"id": i, **types[(i - 1) % TYPES]}
                 for i in range(1, UNITS + 1)],
        "lines": [{"i": i, "j": i + 1, "r": 0.05, "l": 2.1e-6}
                  for i in range(1, UNITS)]}
    scenario = directory / "scenario.json"
    scenario.write_text(json.dumps(payload))
    parsed = cli.parse_scenario(payload)
    cfg = parsed.synthesis_config()
    dgus = parsed.initial_topology.dgus
    designs = synthesize_all(MicrogridTopology(
        {i: dgus[i] for i in range(1, TYPES + 1)}, ()), cfg)
    bundle = directory / "bundle.json"
    # indented, as synth writes it
    bundle.write_text(json.dumps(cli.bundle_to_json(
        {i: designs[(i - 1) % TYPES + 1] for i in dgus}, cfg), indent=2))
    return scenario, bundle


def best(repeats: int, call) -> float:
    """The least wall time of `repeats` calls of call()."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return min(times)


def load(path: pathlib.Path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def main(argv: list) -> int:
    repeats = int(argv[0]) if argv else 5
    if repeats < 1:
        raise SystemExit("repeats must be at least 1")
    with tempfile.TemporaryDirectory(prefix="scale_files-") as tmp:
        scenario, bundle = write_files(pathlib.Path(tmp))
        payload = load(scenario)
        topology = cli.parse_scenario(payload).initial_topology
        times = {
            "json.load, scenario": lambda: load(scenario),
            "json.load, bundle": lambda: load(bundle),
            "parse_scenario": lambda: cli.parse_scenario(payload),
            "load_bundle": lambda: cli.load_bundle(bundle, topology)}
        print(f"{UNITS} units of {TYPES} types, best of {repeats}:")
        for name, call in times.items():
            print(f"{name}: {best(repeats, call):.3f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
