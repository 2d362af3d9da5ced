"""One benchmark sample in a fresh process: set up, then one `run_scenario`.

    python3 perfbench/sample.py run <request.json>
    python3 perfbench/sample.py write-dataset <request.json>

`write-dataset` writes a synthetic dataset as PGM files plus a manifest, so
a workload can read its images from disk. For `run`, the request names the run config, the output directory, whether to trace,
and where to write the result. `setup_s` covers the proto_cil import, the
dataset materialisation (`synth_dataset` or `load_dataset`) and
`make_scenario`, as a user pays them before a run; `run_s` is the
`run_scenario` wall clock. The run goes through the public
`RunConfig.from_dict` -> `run_scenario` path.
"""

import time

T_START = time.perf_counter()

import ctypes  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402


def blas_stamp() -> list:
    """Version and thread count of every OpenBLAS loaded into this process."""
    libs = set()
    with open("/proc/self/maps") as f:
        for line in f:
            parts = line.split()
            if len(parts) >= 6 and "openblas" in Path(parts[-1]).name:
                libs.add(parts[-1])
    out = []
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        entry = {"library": Path(path).name}
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                get_threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                get_config = getattr(lib, f"{prefix}get_config{suffix}", None)
                if get_threads is not None and get_config is not None:
                    get_threads.restype = ctypes.c_int
                    get_config.restype = ctypes.c_char_p
                    entry["threads"] = get_threads()
                    entry["config"] = get_config().decode()
                    break
            if "threads" in entry:
                break
        out.append(entry)
    return out


def main(request_path: str) -> None:
    req = json.loads(Path(request_path).read_text())
    tracer = None
    import numpy
    import scipy
    import scipy.linalg  # noqa: F401  (loads scipy's BLAS, as the run will)
    from proto_cil import datahub, harness
    from proto_cil.seeding import derive_seed

    if req["trace"]:
        from spans import Tracer, install

        tracer = Tracer(req["run_id"])
        install(tracer)

    result = {"run_id": req["run_id"], "traced": bool(req["trace"]),
              "proto_cil_file": harness.__file__}
    config = harness.RunConfig.from_dict(req["config"])
    with tracer.span("setup") if tracer else nullcontext():
        spec = config.dataset
        if "synth" in spec:
            dataset = datahub.synth_dataset(**{"seed": config.seed, **spec["synth"]})
        else:
            dataset = datahub.load_dataset(spec["manifest"])
        datahub.make_scenario(dataset, datahub.ScenarioSpec(
            schedule=list(config.schedule),
            class_order=list(config.class_order or dataset.classes),
            portion=config.portion, seed=derive_seed(config.seed, "scenario")))
    del dataset
    result["setup_s"] = time.perf_counter() - T_START

    t0 = time.perf_counter()
    try:
        harness.run_scenario(config)
    except harness.StageFailure as exc:
        result["failure"] = {"stage": exc.stage, "cause": f"{type(exc.cause).__name__}: "
                                                          f"{exc.cause}"}
    result["run_s"] = time.perf_counter() - t0
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    out_dir = Path(config.output_dir)
    metrics_path = out_dir / "metrics.json"
    if "failure" not in result:
        raw = metrics_path.read_bytes()
        result["metrics_sha256"] = hashlib.sha256(raw).hexdigest()
        result["metrics"] = json.loads(raw)
        result["per_task_seconds"] = json.loads(
            (out_dir / "timings.json").read_text())["per_task_seconds"]
    result["config_fingerprint"] = config.fingerprint()
    result["config_threads"] = config.threads
    result["env"] = {"numpy": numpy.__version__, "scipy": scipy.__version__,
                     "blas": blas_stamp()}
    if tracer is not None:
        Path(req["spans_out"]).write_text(json.dumps(tracer.dump()))
    Path(req["result_out"]).write_text(json.dumps(result))


def write_dataset(request_path: str) -> None:
    req = json.loads(Path(request_path).read_text())
    from proto_cil import datahub

    dataset = datahub.synth_dataset(seed=req["seed"], **req["data"])
    datahub.save_dataset(dataset, req["out_dir"])


if __name__ == "__main__":
    {"run": main, "write-dataset": write_dataset}[sys.argv[1]](sys.argv[2])
