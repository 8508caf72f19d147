"""Job lists for the four benchmark workloads, generated from a seed.

Each workload is a closed loop: one client runs its jobs in order, each job a
``chaosrng.cli.main(argv)`` call that starts after the previous one returned.
The seed draws map parameters and RNG seeds; the program receives only the
generated CLI arguments. Why each workload exists is in README.md.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field

#: tailed-tent tail band around the default tail 0.8961 (Lyapunov ln 1.5)
DEEP_TAIL = (0.893, 0.899)
DEEP_DEPTH = 13
DEEP_JOBS = 2
#: dec-bernoulli slopes at or below sqrt(2) stall the 65,536-bin power
#: iteration (see README.md), so the band starts clear of that edge.
FINE_SLOPE = (1.5, 1.9)
FINE_BINS = 65536
FINE_DEPTH = 12
STREAM_MAPS = ("example", "zigzag")
STREAM_BITS = 1 << 17
STREAM_TS_N = 10
MC_TRIALS = 150
MC_JOBS = 1


@dataclass(frozen=True)
class Job:
    """One CLI call. ``dir`` is its own output directory; ``params`` feed the check."""

    command: str
    argv: tuple
    dir: str
    params: dict = field(default_factory=dict)

    def label(self) -> str:
        return f"{self.dir}:{self.command}"


@dataclass(frozen=True)
class Workload:
    jobs: tuple
    item: str            # what items_per_s counts
    items_per_round: int


def _seed(rng: random.Random) -> int:
    return rng.randrange(2 ** 31)


def _analyze(dir_: str, map_name: str, params: dict, bins: int, depth: int,
             seed: int) -> Job:
    argv = ["analyze", "--map", map_name, "--bins", str(bins), "--depth", str(depth),
            "--seed", str(seed)]
    for k, v in params.items():
        argv += ["--param", f"{k}={v!r}"]
    return Job("analyze", tuple(argv), dir_,
               {"map": map_name, "depth": depth, "certified_slope2": map_name in ("tent", "zigzag")})


def analyze_deep(rng: random.Random) -> Workload:
    jobs = tuple(_analyze(f"deep{i}", "tailed-tent", {"tail": rng.uniform(*DEEP_TAIL)},
                          4096, DEEP_DEPTH, _seed(rng))
                 for i in range(DEEP_JOBS))
    return Workload(jobs, "job", len(jobs))


def analyze_fine(rng: random.Random) -> Workload:
    certified = rng.choice(("zigzag", "tent"))
    jobs = (
        _analyze("fine-example", "example", {}, FINE_BINS, FINE_DEPTH, _seed(rng)),
        _analyze("fine-dec", "dec-bernoulli", {"slope": rng.uniform(*FINE_SLOPE)},
                 FINE_BINS, FINE_DEPTH, _seed(rng)),
        _analyze(f"fine-{certified}", certified, {}, FINE_BINS, FINE_DEPTH, _seed(rng)),
    )
    return Workload(jobs, "job", len(jobs))


def stream(rng: random.Random) -> Workload:
    jobs = []
    for name in STREAM_MAPS:
        seed = _seed(rng)
        gen_dir = f"stream-{name}-gen"
        src = f"{gen_dir}/stream.bin"
        jobs += [
            Job("generate", ("generate", "--map", name, "--count", str(STREAM_BITS),
                             "--seed", str(seed), "--out", "stream.bin"), gen_dir,
                {"map": name, "seed": seed, "count": STREAM_BITS}),
            Job("postprocess-vn", ("postprocess", "--algo", "von-neumann", "--map", name,
                                   "--input", src, "--out", "vn.bin"),
                f"stream-{name}-vn", {"out": "vn.bin"}),
            Job("postprocess-ts", ("postprocess", "--algo", "typical-set", "--map", name,
                                   "--n", str(STREAM_TS_N), "--input", src, "--out", "ts.bin"),
                f"stream-{name}-ts", {"out": "ts.bin"}),
            Job("test", ("test", "--input", src), f"stream-{name}-test", {}),
        ]
    return Workload(tuple(jobs), "bit", STREAM_BITS * len(STREAM_MAPS))


def montecarlo(rng: random.Random) -> Workload:
    jobs = tuple(Job("montecarlo", ("montecarlo", "--map", "zigzag", "--trials", str(MC_TRIALS),
                                    "--bins", "4096", "--depth", "10",
                                    "--seed", str(_seed(rng))),
                     f"mc{i}", {"trials": MC_TRIALS})
                 for i in range(MC_JOBS))
    return Workload(jobs, "trial", MC_TRIALS * MC_JOBS)


WORKLOADS = {"analyze-deep": analyze_deep, "analyze-fine": analyze_fine,
             "stream": stream, "montecarlo": montecarlo}


def build(name: str, seed: int) -> Workload:
    return WORKLOADS[name](random.Random(f"{name}:{seed}"))
