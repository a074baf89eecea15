"""Child process of the benchmark: one fresh interpreter per measurement.

    python bench/child.py setup <workload>
        Time importing entcov and building the workload's fixed inputs.
    python bench/child.py run <workload> <seed> <seconds> <trace> <outdir>
        Make one untimed warm-up call, then call entcov.cli.main for whole
        rounds, at least one, while another round is expected to end within
        about <seconds>; one round when <trace> is 1, so traced counts
        repeat exactly.  The warm-up runs before tracing starts.

Either mode prints one JSON object as its last line of standard output.
The parent sets the BLAS thread variables and the path to ``src``.
"""

import time

_T0 = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402


def peak_rss_kb() -> int:
    """This process's peak resident set size.

    ru_maxrss keeps the high-water mark of the process image replaced by
    exec, so a child started from a large parent would report the parent's
    size; VmHWM belongs to the new image alone.
    """
    status = Path("/proc/self/status")
    if status.exists():
        for line in status.read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def setup(name: str) -> dict:
    workloads.build_fixed_inputs(name)
    return {"setup_s": time.perf_counter() - _T0}


def run(name: str, seed: int, seconds: float, traced: bool, outdir: Path) -> dict:
    import entcov.cli

    try:  # a fault here shows again in the timed calls, which count it
        with contextlib.redirect_stdout(io.StringIO()):
            entcov.cli.main(list(workloads.warm_up_argv(name, outdir)))
    except Exception:
        traceback.print_exc()

    tracer = None
    if traced:
        import entcov.suite  # noqa: F401  every layer module is loaded before wrapping
        import tracing

        tracer = tracing.Tracer(tracing.TARGETS + tracing.WORKLOAD_TARGETS.get(name, ()))
        tracer.install()

    calls = []
    start = time.perf_counter()
    round_index = 0
    while True:
        if tracer is not None:
            tracer.round_index = round_index
        for call in workloads.round_calls(name, seed, round_index, outdir):
            if call.out is not None:  # so an earlier round's file is never checked
                call.out.unlink(missing_ok=True)
            buf = io.StringIO()
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(buf):
                    code = entcov.cli.main(list(call.argv))
            except Exception:  # a crash counts as a failed operation
                traceback.print_exc()
                code = -1
            elapsed = time.perf_counter() - t0
            calls.append({"label": call.label, "round": round_index, "code": code,
                          "seconds": elapsed, "items": call.items, "stdout": buf.getvalue()})
        round_index += 1
        # one round when traced, so its counts repeat exactly; otherwise start
        # another round only while at least half of one still fits
        elapsed = time.perf_counter() - start
        if traced or elapsed + 0.5 * elapsed / round_index >= seconds:
            break

    result = {"calls": calls, "maxrss_kb": peak_rss_kb()}
    if tracer is not None:
        result["layers"] = tracer.summary()
        result["absent"] = tracer.absent
        tracer.write(outdir / "spans.json")
    return result


def main(argv: list[str]) -> int:
    mode, name = argv[0], argv[1]
    if mode == "setup":
        result = setup(name)
    else:
        seed, seconds, trace, outdir = argv[2:6]
        result = run(name, int(seed), float(seconds), trace == "1", Path(outdir))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
