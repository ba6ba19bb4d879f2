"""Spans and work counts around chargebit's public functions, from outside.

`Tracer.install` wraps the functions named below and rebinds every name in
every loaded chargebit module that refers to the original, so a function that
a module imported with ``from .numerics import integrate`` is traced where it
is called. Spans (name, start, end, parent, item) stay in memory until
`write_spans`. Functions in COUNTED get a call counter and no span: they are
called once per integrand evaluation, and their time stays in the span of the
quadrature that calls them.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

SPANNED = {
    "cli": ("analyze", "build_system"),
    "erasure": ("erasure_costs", "absolute_deviation_integral",
                "eta_erasure_work"),
    "dot_model": ("occupation", "half_occupation_level",
                  "occupation_derivative_density"),
    "numerics": ("integrate", "find_root"),
    "dynamics": ("simulate", "make_erasure_schedule"),
    "madgrid": ("random_grid_pdf", "random_symmetric_grid_pdf",
                "grid_cross_correlate", "grid_mad", "verify_lemma2"),
}
COUNTED = {
    "kernels": ("kernel_cdf", "kernel_density"),
    "leads": ("fermi_occupation", "fermi_derivative_density"),
}
# functions whose first argument is evaluated many times: count evaluations
EVALUATED = ("numerics.integrate", "numerics.find_root")
# madgrid functions whose GridPdf arguments and results are counted as bytes
# read and written (float64); verify_lemma2 reads both inputs in its symmetry
# checks and builds the mixture that its grid_mad call then reads
GRID_BYTES = ("madgrid.random_grid_pdf", "madgrid.random_symmetric_grid_pdf",
              "madgrid.grid_cross_correlate", "madgrid.grid_mad",
              "madgrid.verify_lemma2")


def _grid_elements(value) -> int:
    dens = getattr(value, "densities", None)
    return 0 if dens is None else int(dens.size)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent, item]
        # one-element lists, the cheapest counter a closure can bump
        self.cells: dict[str, list] = defaultdict(lambda: [0])
        self.item = -1
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        for layer, names in SPANNED.items():
            for name in names:
                self._wrap(layer, name, self._span)
        for layer, names in COUNTED.items():
            for name in names:
                self._wrap(layer, name, self._counter)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def _wrap(self, layer: str, name: str, make) -> None:
        module = sys.modules.get(f"chargebit.{layer}")
        original = getattr(module, name, None)
        if original is None:
            return
        wrapper = make(f"{layer}.{name}", original)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "chargebit" and not mod_name.startswith(
                    "chargebit."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._restore.append((mod, attr, original))

    def _counter(self, key: str, fn):
        cell = self.cells[key + ".calls"]

        def counted(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)
        return counted

    def _span(self, key: str, fn):
        spans, stack = self.spans, self._stack
        evals = self.cells[key + ".evals"] if key in EVALUATED else None
        grid_bytes = self.cells["madgrid.bytes"] if key in GRID_BYTES else None
        gamma_t = (self.cells["dynamics.gamma_t"]
                   if key == "dynamics.simulate" else None)
        perf = time.perf_counter

        def traced(*args, **kwargs):
            if evals is not None:
                inner = args[0]

                def evaluated(x):
                    evals[0] += 1
                    return inner(x)
                args = (evaluated,) + args[1:]
            if grid_bytes is not None:
                grid_bytes[0] += 8 * sum(map(_grid_elements, args))
            if gamma_t is not None:
                sys_, sched = args[0], args[1]
                gamma_t[0] += sys_.rates.total * sum(
                    seg.duration for seg in sched.segments)
            record = [key, 0.0, 0.0, stack[-1] if stack else -1, self.item]
            stack.append(len(spans))
            spans.append(record)
            record[1] = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf()
                stack.pop()
            if grid_bytes is not None:
                grid_bytes[0] += 8 * _grid_elements(result)
            return result
        return traced

    def run_item(self, index: int, fn, *args):
        """Run one item inside a root span tagged with its index."""
        self.item = index
        return self._span("item", fn)(*args)

    # -- results ----------------------------------------------------------------

    def per_layer(self, n_items: int) -> dict[str, float]:
        """Per-item counts and self times (ms), and the derived ratios."""
        n = len(self.spans)
        child = [0.0] * n
        in_half = [False] * n
        in_simulate = [False] * n
        self_s: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        occ_in_half = occ_in_sim = 0
        with_mad = adi_inside = 0.0
        adi_children: dict[int, float] = defaultdict(float)
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            if parent >= 0:
                child[parent] += end - start
                in_half[i] = in_half[parent]
                in_simulate[i] = in_simulate[parent]
                if name == "erasure.absolute_deviation_integral":
                    adi_children[parent] += end - start
            in_half[i] |= name == "dot_model.half_occupation_level"
            in_simulate[i] |= name == "dynamics.simulate"
            if name == "dot_model.occupation":
                occ_in_half += in_half[i]
                occ_in_sim += in_simulate[i]
        for i, (name, start, end, _, _) in enumerate(self.spans):
            self_s[name] += end - start - child[i]
            calls[name] += 1
            if name == "erasure.erasure_costs" and i in adi_children:
                with_mad += end - start
                adi_inside += adi_children[i]

        per = 1.0 / n_items
        m: dict[str, float] = {}

        def ms(key):
            m[f"{key}.ms"] = 1e3 * self_s.get(key, 0.0) * per

        def count(key, source=None):
            m[key] = (calls[source] if source
                      else self.cells.get(key, [0])[0]) * per

        count("numerics.integrate.calls", "numerics.integrate")
        count("numerics.integrate.evals")
        ms("numerics.integrate")
        count("numerics.find_root.calls", "numerics.find_root")
        count("numerics.find_root.evals")
        for key in ("dot_model.occupation", "dot_model.half_occupation_level",
                    "dot_model.occupation_derivative_density"):
            count(f"{key}.calls", key)
            ms(key)
        halves = calls["dot_model.half_occupation_level"]
        m["dot_model.occupation_per_mu_half"] = (
            occ_in_half / halves if halves else 0.0)
        for layer, names in COUNTED.items():
            for name in names:
                count(f"{layer}.{name}.calls")
        for key in ("erasure.erasure_costs",
                    "erasure.absolute_deviation_integral",
                    "erasure.eta_erasure_work"):
            ms(key)
        count("erasure.eta_erasure_work.calls", "erasure.eta_erasure_work")
        m["erasure.mad_check_ratio"] = (
            with_mad / (with_mad - adi_inside) if with_mad else 0.0)
        ms("dynamics.simulate")
        ms("dynamics.make_erasure_schedule")
        gamma_t = self.cells.get("dynamics.gamma_t", [0])[0]
        m["dynamics.occupation_per_gamma_t"] = (
            occ_in_sim / gamma_t if gamma_t else 0.0)
        for key in ("madgrid.random_grid_pdf", "madgrid.grid_cross_correlate",
                    "madgrid.grid_mad", "madgrid.verify_lemma2"):
            ms(key)
        count("madgrid.grid_mad.calls", "madgrid.grid_mad")
        m["madgrid.bytes_computed"] = (
            self.cells.get("madgrid.bytes", [0])[0] * per)
        ms("cli.analyze")
        ms("cli.build_system")
        return m

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart_s\tend_s\tparent\titem\n")
            for name, start, end, parent, item in self.spans:
                fh.write(f"{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{item}\n")
