"""Seeded input generators for the three benchmark workloads.

A workload is a fixed *period*: a list of operation templates (kind, size
slot, family, format, sign) that covers every size slot of every kind once.
The stream repeats the period; each repetition draws fresh family
parameters (each template keeps its place in the parameter range, moved by
seeded jitter), phases and probe points from the seed, while sizes stay on
the grid.  So every period does nearly the same work whatever the seed, a
run is a whole number of periods, and its metrics do not depend on where
the clock ran out.  The first
template of each sized kind sits at the top of its range, so every run
holds the workload's largest case (which fixes peak memory).

Specs are plain data; nothing here imports defosc, so the same seed always
gives the same specs, and the program sees only those inputs.  See
README.md for the mix and the ranges.
"""

from __future__ import annotations

import math
import random

from reference import descriptor, factorial_float_limit, radius

WORKLOADS = ("tables", "ladder", "checks")
FORMATS = ("table", "json", "csv")

# coherent fills with an automatic cutoff stop here: at 0.999 the cutoff is
# about 40 000 and the dense ladder would need two 12.6 GB matrices
FILL_CAP = 0.99


def _spread(points: int) -> list[int]:
    """0..points-1 from the top down, each next slot farthest from those taken."""
    order = [points - 1]
    while len(order) < points:
        rest = [j for j in range(points) if j not in order]
        order.append(max(rest, key=lambda j: min(abs(j - o) for o in order)))
    return order


def _num(v: float) -> str:
    return repr(float(v))


def family(name: str, u: float, v: float = 0.5) -> tuple[str, dict]:
    """Parameters for a family at quantiles u (and v for a second parameter) of its range."""
    at = lambda lo, hi, w: round(lo + (hi - lo) * w, 4)
    if name == "boson":
        return "boson", {}
    if name == "tsallis":
        return "tsallis", {"q": at(1.1, 1.95, u)}
    if name == "tsallis-pole":
        # dyadic q = 1 - 1/m makes 1 + (q-1)(n-1) exactly 0 at n = m + 1
        return "tsallis", {"q": 1.0 - 1.0 / (2, 4, 8, 16, 32)[min(4, int(5 * u))]}
    if name == "qosc":
        return "qosc", {"q": at(0.5, 0.95, u)}
    if name == "mu":
        return "mu", {"mu": at(0.1, 1.0, u)}
    if name == "symq":
        return "symq", {"q": at(1.001, 1.006, u)}
    if name == "pq":
        return "pq", {"p": at(1.001, 1.006, v), "q": at(0.5, 0.95, u)}
    if name == "pq-edge":
        # p = 1 keeps a finite disk of radius 1/(1-q)
        return "pq", {"p": 1.0, "q": at(0.5, 0.95, u)}
    raise ValueError(name)


# --- one period of each workload -----------------------------------------------


def _tables() -> list[dict]:
    s5, s6 = _spread(5), _spread(6)
    numbers = [
        {"kind": "cli.numbers", "slot": (s5[i], 5), "family": ("tsallis", "tsallis-pole", "qosc", "pq", "mu")[i],
         "log": i % 2 == 1, "format": FORMATS[i % 3]}
        for i in range(5)
    ]
    spectrum = [
        {"kind": "cli.spectrum", "slot": (s6[i], 6), "format": FORMATS[i % 3],
         "family": ("tsallis", "qosc", "mu", "symq", "pq", "boson")[i]}
        for i in range(6)
    ]
    exp = [
        {"kind": "cli.exp", "slot": (s6[i % 6], 6), "sign": 1.0 if i < 6 else -1.0,
         "format": FORMATS[i % 3],
         "family": ("tsallis", "tsallis-pole", "qosc", "mu", "pq-edge", "tsallis")[(i + i // 6) % 6]}
        for i in range(12)
    ]
    out = []
    for r in range(2):
        e, s = exp[6 * r: 6 * r + 6], spectrum[3 * r: 3 * r + 3]
        out += [numbers[2 * r], e[0], s[0], e[1], e[2], numbers[2 * r + 1], s[1], e[3], s[2], e[4], e[5]]
    # an odd period puts the median latency inside one template's cluster,
    # not between two clusters far apart
    return out + [numbers[4]]


def _ladder() -> list[dict]:
    s6 = _spread(6)
    fams = ("tsallis", "qosc", "mu", "symq", "pq", "boson")
    out = []
    for i in range(6):
        for kind in ("fock.build_fock", "fock.commutator_residual", "fock.hamiltonian"):
            out.append({"kind": kind, "slot": (s6[i], 6), "family": fams[i]})
        out.append({"kind": "fock.state_from_vacuum", "slot": (s6[i], 6),
                    "n_slot": (s6[(i + 2) % 6], 6), "family": fams[(i + 1) % 6]})
        out.append({"kind": "coherent.state", "slot": (s6[i], 6),
                    "family": ("tsallis", "mu", "tsallis", "qosc", "tsallis", "pq-edge")[i]})
        out.append({"kind": "cli.coherent", "slot": (s6[i], 6), "dim_slot": (i % 3, 3),
                    "format": FORMATS[i % 3],
                    "family": ("mu", "tsallis", "qosc", "pq-edge", "tsallis", "mu")[i]})
    return out


def _checks() -> list[dict]:
    fams7 = ("tsallis", "tsallis-pole", "qosc", "mu", "symq", "pq", "boson")
    fams6 = ("tsallis", "qosc", "mu", "symq", "pq", "boson")
    out = [{"kind": "cli.verify", "target": "all", "format": "table"}]
    out += [
        {"kind": "cli.verify", "target": ("series", "spectrum", "coherent", "calculus")[i % 4],
         "focus": fams6[i], "format": FORMATS[i % 3]}
        for i in range(6)
    ]
    out += [
        {"kind": "cli.derive", "route": ("boson", "qosc", "symq", "pq", "tsallis")[i % 5],
         "function": ("monomial", "series", "tsallis-exp")[i // 5], "format": FORMATS[i % 3]}
        for i in range(15)
    ]
    out += [{"kind": "calculus.quadrature", "shape": ("step", "kink")[i % 2]} for i in range(4)]
    out += [{"kind": "cli.numbers", "slot": (i % 4, 4), "family": f, "log": i % 2 == 1,
             "format": FORMATS[i % 3]} for i, f in enumerate(fams7)]
    out += [{"kind": "cli.spectrum", "slot": (i % 3, 3), "family": f, "format": FORMATS[i % 3]}
            for i, f in enumerate(fams6)]
    out += [{"kind": "cli.exp", "family": f, "sign": (1.0, -1.0)[i % 2], "format": FORMATS[i % 3]}
            for i, f in enumerate(fams7)]
    out += [{"kind": "cli.error", "case": c} for c in
            ("outside", "pole-spectrum", "pole-coherent", "bad-q", "unknown", "not-a-number")]
    out += [{"kind": "series.divergence", "family": f} for f in ("tsallis", "qosc", "mu", "pq-edge")]
    random.Random(0).shuffle(out)  # a fixed interleaving, the same for every seed
    return out


PERIODS = {"tables": _tables(), "ladder": _ladder(), "checks": _checks()}


class Stream:
    """Periods of operation specs for one workload and seed."""

    def __init__(self, workload: str, seed: int):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
        self.workload = workload
        self.rng = random.Random(f"{workload}/{seed}")

    def next_period(self) -> list[dict]:
        out = []
        for j, t in enumerate(PERIODS[self.workload]):
            # each template keeps its place in the parameter ranges (a
            # golden-ratio sequence), moved by seeded jitter
            self._u = min(1.0, max(0.0, (j * 0.6180339887498949) % 1.0 + self.rng.uniform(-0.05, 0.05)))
            out.append(getattr(self, "_" + t["kind"].replace(".", "_"))(t))
        return out

    def _family(self, name: str) -> tuple[str, dict]:
        return family(name, self._u, (self._u + 0.5) % 1.0)

    @staticmethod
    def _quantile(slot: tuple[int, int]) -> float:
        """Slot k of a grid of n points as a quantile in [0, 1]."""
        k, n = slot
        return k / (n - 1)

    # --- cli tables --------------------------------------------------------

    def _cli_numbers(self, t: dict) -> dict:
        lo, hi = (4, 64) if self.workload == "checks" else (100, 2000)
        n_max = int(round(lo * (hi / lo) ** self._quantile(t["slot"])))
        kind, params = self._family(t["family"])
        argv = ["numbers", descriptor(kind, params), "--n-max", str(n_max), "--format", t["format"]]
        if t["log"]:
            argv.append("--log-factorial")
        return {"kind": "cli.numbers", "argv": argv, "family": [kind, params], "n_max": n_max,
                "log": t["log"], "format": t["format"], "entries": n_max + 1,
                "probe": self.rng.getrandbits(32)}

    def _cli_spectrum(self, t: dict) -> dict:
        lo, hi = (2, 64) if self.workload == "checks" else (1000, 100_000)
        n_max = int(round(lo * (hi / lo) ** self._quantile(t["slot"])))
        kind, params = self._family(t["family"])
        argv = ["spectrum", descriptor(kind, params), "--n-max", str(n_max), "--format", t["format"]]
        return {"kind": "cli.spectrum", "argv": argv, "family": [kind, params], "n_max": n_max,
                "format": t["format"], "entries": n_max + 1, "probe": self.rng.getrandbits(32)}

    def _cli_exp(self, t: dict) -> dict:
        kind, params = self._family(t["family"])
        r = radius(kind, params)
        if "slot" in t:
            # |x| = (1 - 10^-U) R with U in [1, 4]
            mag = (1.0 - 10.0 ** -(1.0 + 3.0 * self._quantile(t["slot"]))) * r
        elif math.isfinite(r):
            mag = self.rng.uniform(0.05, 0.5) * r
        else:
            mag = self.rng.uniform(0.1, 8.0)
        x = t["sign"] * mag
        argv = ["exp", descriptor(kind, params), _num(x), "--format", t["format"]]
        return {"kind": "cli.exp", "argv": argv, "family": [kind, params], "x": x, "format": t["format"]}

    # --- ladder --------------------------------------------------------------

    def _fock(self, t: dict) -> dict:
        dim = int(round(128 * 16 ** self._quantile(t["slot"])))
        fkind, params = self._family(t["family"])
        spec = {"kind": t["kind"], "family": [fkind, params], "dim": dim, "probe": self.rng.getrandbits(32)}
        if "n_slot" in t:
            # |n> exists only while phi(n)! fits a float; past that the
            # library's documented answer is an OverflowError
            top = min(dim - 1, factorial_float_limit(fkind, params, dim - 1))
            spec["n"] = int(round(top ** self._quantile(t["n_slot"])))
        return spec

    _fock_build_fock = _fock_commutator_residual = _fock_hamiltonian = _fock_state_from_vacuum = _fock

    def _alpha(self, kind: str, params: dict, fill: float) -> complex:
        phase = self.rng.uniform(0.0, 2.0 * math.pi)
        mod = math.sqrt(fill * radius(kind, params))
        return complex(round(mod * math.cos(phase), 12), round(mod * math.sin(phase), 12))

    def _coherent_state(self, t: dict) -> dict:
        # 1 - fill spans 0.5 .. 0.01, so the automatic cutoff spans 80 .. 4001
        fill = 1.0 - 0.5 * (2.0 * (1.0 - FILL_CAP)) ** self._quantile(t["slot"])
        kind, params = self._family(t["family"])
        alpha = self._alpha(kind, params, fill)
        return {"kind": "coherent.state", "family": [kind, params], "fill": fill,
                "alpha": [alpha.real, alpha.imag]}

    def _cli_coherent(self, t: dict) -> dict:
        dim = int(round(64 * 16 ** self._quantile(t["dim_slot"])))
        # an explicit cutoff bounds memory, so fills may pass the automatic
        # cap: 1 - fill spans 0.5 .. 0.001
        fill = 1.0 - 0.5 * 0.002 ** self._quantile(t["slot"])
        kind, params = self._family(t["family"])
        alpha = self._alpha(kind, params, fill)
        text = f"{alpha.real!r}{alpha.imag:+}j"
        # "--" keeps argparse from reading a leading minus sign as an option
        argv = ["coherent", descriptor(kind, params), "--dim", str(dim), "--format", t["format"], "--", text]
        return {"kind": "cli.coherent", "argv": argv, "family": [kind, params], "fill": fill,
                "alpha": [alpha.real, alpha.imag], "dim": dim, "format": t["format"],
                "probe": self.rng.getrandbits(32)}

    # --- checks --------------------------------------------------------------

    def _cli_verify(self, t: dict) -> dict:
        argv = ["verify", t["target"]]
        if "focus" in t:
            argv += ["--scheme", descriptor(*self._family(t["focus"]))]
        return {"kind": "cli.verify", "argv": argv + ["--format", t["format"]], "format": t["format"]}

    def _cli_derive(self, t: dict) -> dict:
        rng = self.rng
        route, fn = t["route"], t["function"]
        q = lambda lo, hi: round(rng.uniform(lo, hi), 4)
        params = {
            "boson": {},
            "qosc": {"q": q(0.5, 0.9) if rng.random() < 0.5 else q(1.1, 2.0)},
            "symq": {"q": q(1.1, 1.6)},
            "pq": {"p": q(1.1, 1.6), "q": q(0.5, 0.9)},
            "tsallis": {"q": q(1.1, 2.0)},
        }[route]
        if fn == "tsallis-exp" and route != "tsallis":
            fn = "series"
        xmax = 1.0
        if fn == "monomial":
            function = {"monomial": rng.randint(1, 8)}
            text = f"monomial:{function['monomial']}"
        elif fn == "series":
            coeffs = [round(rng.uniform(-1.0, 1.0), 3) for _ in range(rng.randint(2, 6))]
            function = {"series": coeffs}
            text = "series:" + ";".join(_num(c) for c in coeffs)
        else:
            k = round(rng.uniform(0.3, 1.0), 3)
            function = {"tsallis-exp": k}
            text = f"tsallis-exp:{_num(k)}"
            xmax = 0.6 / ((params["q"] - 1.0) * k)
        xs = sorted(round(rng.uniform(0.1, min(1.0, xmax)), 4) for _ in range(rng.randint(1, 4)))
        argv = ["derive", descriptor(route, params), "--function", text,
                "--x", ",".join(_num(x) for x in xs), "--format", t["format"]]
        return {"kind": "cli.derive", "argv": argv, "family": [route, params], "function": function,
                "xs": xs, "format": t["format"]}

    def _calculus_quadrature(self, t: dict) -> dict:
        rng = self.rng
        x = round(rng.uniform(0.5, 1.5), 4)
        return {"kind": "calculus.quadrature", "shape": t["shape"], "q": round(rng.uniform(1.1, 2.0), 4),
                "x": x, "u0": round(rng.uniform(0.2, 0.8) * x, 4)}

    def _cli_error(self, t: dict) -> dict:
        rng = self.rng
        case = t["case"]
        if case == "outside":
            q = round(rng.uniform(1.1, 1.95), 4)
            x = rng.choice((1.0, -1.0)) * (1.0 + rng.uniform(0.0, 1.0)) / (q - 1.0)
            return {"kind": "cli.error", "argv": ["exp", f"tsallis:q={q!r}", _num(x)],
                    "expect": [2, "divergence-error"]}
        if case in ("pole-spectrum", "pole-coherent"):
            m = rng.choice((2, 4, 8))
            desc = f"tsallis:q={1.0 - 1.0 / m!r}"
            if case == "pole-spectrum":
                argv = ["spectrum", desc, "--n-max", str(m + rng.randint(1, 20))]
            else:
                argv = ["coherent", desc, _num(round(rng.uniform(0.1, 0.9), 3))]
            return {"kind": "cli.error", "argv": argv, "expect": [2, "domain-error"]}
        if case == "bad-q":
            desc = f"tsallis:q={round(rng.uniform(2.1, 5.0), 3)!r}"
        elif case == "unknown":
            desc = rng.choice(("foo:q=1", "qosc:p=0.5", "tsallis", "mu:mu=-0.5"))
        else:
            desc = rng.choice(("qosc:q=abc", "pq:p=1.2,q=", "tsallis:q=1.5,q=1.2"))
        return {"kind": "cli.error", "argv": ["numbers", desc], "expect": [2, "usage-error"]}

    def _series_divergence(self, t: dict) -> dict:
        kind, params = self._family(t["family"])
        r = radius(kind, params)
        x = self.rng.choice((1.0, -1.0)) * r * (1.0 + self.rng.uniform(0.0, 1.0))
        return {"kind": "series.divergence", "family": [kind, params], "x": x}


def warmup_specs(workload: str) -> list[dict]:
    """One small spec per operation kind of the workload, the same for every seed."""
    seen: dict[str, dict] = {}
    for spec in Stream(workload, 0).next_period():
        seen.setdefault(spec["kind"], spec)
    return [shrink(spec) for spec in seen.values()]


def shrink(spec: dict) -> dict:
    """A copy of spec at the smallest size its kind allows."""
    spec = dict(spec)
    kind = spec["kind"]
    if kind in ("cli.numbers", "cli.spectrum"):
        spec["n_max"] = 8
        spec["entries"] = 9
        argv = list(spec["argv"])
        argv[argv.index("--n-max") + 1] = "8"
        spec["argv"] = argv
    elif kind.startswith("fock."):
        spec["dim"] = 16
        if "n" in spec:
            spec["n"] = 5
    elif kind == "cli.coherent":
        spec["dim"] = 16
        argv = list(spec["argv"])
        argv[argv.index("--dim") + 1] = "16"
        spec["argv"] = argv
    elif kind == "cli.exp" and math.isfinite(radius(*spec["family"])):
        spec["x"] = 0.5 * radius(*spec["family"])
        argv = list(spec["argv"])
        argv[2] = _num(spec["x"])
        spec["argv"] = argv
    elif kind == "coherent.state":
        kind_, params = spec["family"]
        spec["alpha"] = [math.sqrt(0.3 * radius(kind_, params)), 0.0]
        spec["fill"] = 0.3
    return spec
