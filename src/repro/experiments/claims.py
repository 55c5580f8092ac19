"""The paper's claims as one table, checked against the simulator.

A :class:`Claim` names a paper figure and value, the experiment and the one
(smallest meaningful) :class:`ExperimentConfig` it reads, and maps the rows
to checks ``(label, value, op, bound)``.  It holds when every check holds;
its margin is the smallest signed distance to a bound.  Checks read only
simulated-clock quantities and graph statistics, never losses or wall time,
so ``BENCH_paper.json`` is byte-identical on any host.
"""

from __future__ import annotations

import dataclasses
import json
import operator
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Sequence, Tuple

import numpy as np

from repro.experiments import EXPERIMENTS, fig11_parallel_gnn
from repro.experiments.common import ExperimentConfig, format_table
from repro.experiments.fig10_overall_speedup import speedups

#: ``(label, value, op, bound)``: the check holds when ``value op bound``
Check = Tuple[str, float, str, float]

#: file ``python -m repro claims`` writes to the working directory
BENCH_FILE = "BENCH_paper.json"

_OPS = {">": operator.gt, ">=": operator.ge, "<": operator.lt, "<=": operator.le, "==": operator.eq}

#: experiment name -> ``run(config)``, plus two Fig. 11 panels that are not
#: experiments (the thread-utilization panel reads no config)
_RUNNERS: Dict[str, Callable[[ExperimentConfig], Any]] = {
    **{name: module.run for name, module in EXPERIMENTS.items()},
    "fig11b": fig11_parallel_gnn.dimension_sensitivity,
    "thread_utilization": lambda _config: fig11_parallel_gnn.thread_utilization(),
}


@dataclass(frozen=True)
class Claim:
    """One paper claim and how the experiment's rows are checked against it."""

    id: str
    figure: str
    paper: str
    experiment: str
    config: ExperimentConfig
    checks: Callable[[Any], Iterable[Check]]


CLAIMS: List[Claim] = []


def _claim(id: str, figure: str, paper: str, experiment: str, config: ExperimentConfig):
    def register(checks: Callable[[Any], Iterable[Check]]):
        CLAIMS.append(Claim(id, figure, paper, experiment, config, checks))
        return checks

    return register


def _mean(rows: Any, key: str) -> float:
    return float(np.mean([row[key] for row in rows.values()]))


#: the small covid19_england analogue under EvolveGCN
_SMALL = ExperimentConfig(
    datasets=("covid19_england",), models=("evolvegcn",), num_snapshots=10, frame_size=6
)
_BOTH = ("flickr", "covid19_england")
#: both datasets under both models
_SWEEP = _SMALL.with_overrides(datasets=_BOTH, models=("evolvegcn", "tgcn"))
#: Fig. 3's transfer share and Table 2's utilization gap need the large flickr
_LARGE_AND_SMALL = _SMALL.with_overrides(datasets=_BOTH, num_snapshots=12, frame_size=8)
_NOT_IN_PAPER = "not in the paper (one V100)"


@_claim("fig3", "Fig. 3", "PyGT: transfer ~38.7% of time, SM util ~41%", "fig3", _LARGE_AND_SMALL)
def _fig3(rows):
    yield ("max transfer fraction", max(r["transfer_fraction"] for r in rows.values()), ">", 0.25)
    yield ("mean SM utilization", _mean(rows, "sm_utilization"), "<", 0.9)


@_claim("fig4", "Fig. 4", "GNN is EvolveGCN's main compute burden", "fig4", _SMALL)
def _fig4(rows):
    for key, row in rows.items():
        total = row["gnn_fraction"] + row["rnn_fraction"] + row["other_fraction"]
        yield (f"{key} |GNN + RNN + other - 1|", abs(total - 1.0), "<", 1e-6)
        if key.startswith("evolvegcn"):
            yield (f"{key} GNN vs RNN fraction", row["gnn_fraction"], ">", row["rnn_fraction"])


@_claim("fig5", "Fig. 5", "txn rise past dim 8, requests past dim 32", "fig5", _SWEEP)
def _fig5(rows):
    txn = {dim: row["transactions_per_nnz"] for dim, row in rows.items()}
    req = {dim: row["requests_per_nnz"] for dim, row in rows.items()}
    yield ("txn/nnz at dim 8 vs 1.25 x dim 2", txn[8], "<=", txn[2] * 1.25)
    yield ("txn/nnz at dim 32 vs dim 8", txn[32], ">", txn[8])
    yield ("req/nnz at dim 32 vs 1.5 x dim 2", req[32], "<=", req[2] * 1.5)
    yield ("req/nnz at dim 128 vs dim 32", req[128], ">", req[32])


@_claim("fig9", "Fig. 9", "speedup grows with S_per, overlap; >1 at every dim", "fig9", _SWEEP)
def _fig9(rows):
    t = rows["speedup_vs_overlap"]
    for x in (0.1, 0.5, 0.9):
        yield (f"overlap {x}: S_per=8 vs 0.95 x S_per=2", t[(8, x)], ">=", t[(2, x)] * 0.95)
    for s in (2, 4, 8):
        yield (f"S_per={s}: overlap 0.9 vs 0.1", t[(s, 0.9)], ">=", t[(s, 0.1)])
    t = rows["speedup_vs_dimension"]
    for (s, dim), speedup in sorted(t.items()):
        yield (f"S_per={s} dim {dim} speedup", speedup, ">", 1.0)
    yield ("S_per=8: dim 2 vs dim 64 speedup", t[(8, 2)], ">", t[(8, 64)])


@_claim("fig10", "Fig. 10", "PiPAD 1.22x-9.57x over every baseline", "fig10", _SWEEP)
def _fig10(rows):
    table = speedups(rows)
    yield ("combinations trained", len(table), ">", 0)
    for key, row in table.items():
        best_other = max(v for method, v in row.items() if method != "PiPAD")
        yield (f"{key} PiPAD speedup", row["PiPAD"], ">", 1.0)
        yield (f"{key} PiPAD vs 0.95 x best other", row["PiPAD"], ">=", best_other * 0.95)
        yield (f"{key} PyGT-A speedup", row["PyGT-A"], ">", 0.8)
    yield ("max PiPAD speedup", max(row["PiPAD"] for row in table.values()), ">", 2.0)
    yield ("min PiPAD speedup", min(row["PiPAD"] for row in table.values()), ">", 1.0)


@_claim("fig11a", "Fig. 11(a)", "GNN 5.6x/3.1x over PyGT/PyGT-G; 57%/45% fewer req/txn",
        "fig11", _SWEEP)
def _fig11a(rows):
    yield ("mean GNN speedup over PyGT", _mean(rows, "speedup_over_pygt"), ">", 2.0)
    yield ("mean GNN speedup over PyGT-G", _mean(rows, "speedup_over_pygt_g"), ">", 1.2)
    yield ("mean request reduction", _mean(rows, "request_reduction"), ">", 0.2)
    yield ("mean transaction reduction", _mean(rows, "transaction_reduction"), ">", 0.05)


@_claim("fig11b", "Fig. 11(b)", ">=5.2x over PyGT at every feature dim", "fig11b", _SWEEP)
def _fig11b(rows):
    for dim, speedup in sorted(rows.items()):
        yield (f"dim {dim} GNN speedup over PyGT", speedup, ">", 2.0)
    yield ("dim 2 vs dim 128 speedup", rows[2], ">=", rows[128])


@_claim("thread-utilization", "Sec. 5.3", "warp efficiency 57.2% PyGT-G, 64.9% PiPAD",
        "thread_utilization", _SWEEP)
def _thread_utilization(row):
    pipad, pygt_g = row["pipad_thread_utilization"], row["pygt_g_thread_utilization"]
    yield ("PiPAD vs PyGT-G warp efficiency", pipad, ">", pygt_g)
    yield ("PyGT-G warp efficiency, lower", pygt_g, ">", 0.1)
    yield ("PyGT-G warp efficiency, upper", pygt_g, "<", 0.9)
    yield ("PiPAD warp efficiency", pipad, "<=", 1.0)


@_claim("fig12", "Fig. 12", "sliced CSR balances load, less on dense graphs", "fig12", _SMALL)
def _fig12(rows):
    for name, row in rows.items():
        yield (f"{name} sliced vs 1.05 x CSR imbalance", row["sliced_imbalance"], "<=",
               row["csr_imbalance"] * 1.05)
        yield (f"{name} end-to-end speedup", row["end_to_end_speedup"], ">", 0.9)
    yield ("mean balance improvement", _mean(rows, "improvement"), ">=", 0.97)


@_claim("table1", "Table 1", "7 datasets; Flickr D=2, HepTh D=16; ~10% change", "table1", _SWEEP)
def _table1(rows):
    yield ("datasets", len(rows), "==", 7)
    yield ("flickr feature dim", rows["flickr"]["feature_dim"], "==", 2)
    yield ("hepth feature dim", rows["hepth"]["feature_dim"], "==", 16)
    for name, row in rows.items():
        if name != "pems08":
            yield (f"{name} change rate, lower", row["analogue_avg_change_rate"], ">", 0.0)
            yield (f"{name} change rate, upper", row["analogue_avg_change_rate"], "<", 0.35)


@_claim("table2", "Table 2", "async busier; small datasets lower", "table2", _LARGE_AND_SMALL)
def _table2(rows):
    for key, row in rows.items():
        for method, value in row.items():
            yield (f"{key} {method} utilization %, lower", value, ">", 0.0)
            yield (f"{key} {method} utilization %, upper", value, "<=", 100.0)
    large = {key: row for key, row in rows.items() if "flickr" in key}
    small = [row["PyGT"] for key, row in rows.items() if "covid" in key]
    for key, row in large.items():
        yield (f"{key} PyGT-A vs PyGT - 5 points", row["PyGT-A"], ">=", row["PyGT"] - 5.0)
    yield ("mean PyGT utilization, small vs large", np.mean(small), "<",
           np.mean([row["PyGT"] for row in large.values()]))


@_claim("format-space", "Sec. 4.1", "sliced CSR between CSR and COO; below CSR on YouTube",
        "space_overhead", _SMALL.with_overrides(datasets=_BOTH + ("youtube", "hepth")))
def _format_space(rows):
    for name, row in rows.items():
        yield (f"{name} sliced/COO bytes", row["sliced_over_coo"], "<=", 1.10)
        yield (f"{name} sliced/CSR bytes, positive", row["sliced_over_csr"], ">", 0.0)
    yield ("covid19_england sliced/CSR bytes", rows["covid19_england"]["sliced_over_csr"], ">=",
           0.95)
    yield ("youtube sliced/CSR bytes", rows["youtube"]["sliced_over_csr"], "<", 1.0)


@_claim("ablations", "Sec. 5", "pipeline and CUDA-Graph launch pay off", "ablations", _SMALL)
def _ablations(rows):
    yield ("full epoch seconds", rows["full"]["epoch_seconds"], ">", 0.0)
    for name, row in rows.items():
        yield (f"{name} slowdown vs full", row["slowdown_vs_full"], ">", 0.9)
    for name in ("no_pipeline", "no_cuda_graph"):
        yield (f"{name} slowdown vs full, load-bearing", rows[name]["slowdown_vs_full"], ">=", 1.0)


@_claim("scaling-multi-gpu", "Extension", _NOT_IN_PAPER, "scaling",
        _SWEEP.with_overrides(datasets=("flickr",), models=("tgcn",)))
def _scaling_multi_gpu(rows):
    by = {int(row["devices"]): row for row in rows}
    yield ("1-device speedup", by[1]["speedup"], "==", 1.0)
    yield ("4-device speedup", by[4]["speedup"], ">", 1.5)
    yield ("2-device speedup", by[2]["speedup"], ">", 1.0)
    yield ("8-device vs 4-device speedup", by[8]["speedup"], ">=", by[4]["speedup"])
    for devices in (d for d in by if d > 1):
        for key in ("all_reduce_seconds", "halo_exchange_seconds"):
            yield (f"{devices}-device {key}", by[devices][key], ">", 0.0)
    yield ("1-device all_reduce_seconds", by[1]["all_reduce_seconds"], "==", 0.0)


@_claim("scaling-pipeline", "Extension", _NOT_IN_PAPER, "scaling_pipeline",
        _SWEEP.with_overrides(datasets=("flickr",), models=("evolvegcn",)))
def _scaling_pipeline(rows):
    by = {int(row["devices"]): row for row in rows}
    yield ("1-stage speedup", by[1]["speedup"], "==", 1.0)
    yield ("4-stage speedup", by[4]["speedup"], ">", 1.3)
    yield ("2-stage speedup", by[2]["speedup"], ">", 1.0)
    for devices in (d for d in by if d > 1):
        for key in ("peer_transfer_seconds", "bubble_seconds", "all_reduce_seconds"):
            yield (f"{devices}-stage {key}", by[devices][key], ">", 0.0)
    for key in ("peer_transfer_seconds", "bubble_seconds"):
        yield (f"1-stage {key}", by[1][key], "==", 0.0)
    for key in ("group_all_reduce_seconds", "group_steady_epoch_seconds"):
        yield (f"4-device {key}", by[4][key], ">", 0.0)


def _distance(value: float, op: str, bound: float) -> float:
    if op == "==":
        return 0.0 if value == bound else -abs(value - bound)
    return value - bound if op.startswith(">") else bound - value


def evaluate_claims(claims: Sequence[Claim]) -> List[Dict[str, Any]]:
    """One ``BENCH_paper.json`` record per claim, every float as ``float.hex``."""
    rows: Dict[Tuple[str, ExperimentConfig], Any] = {}
    records = []
    for claim in claims:
        key = (claim.experiment, claim.config)
        if key not in rows:
            rows[key] = _RUNNERS[claim.experiment](claim.config)
        checks = [(label, float(v), op, float(b)) for label, v, op, b in claim.checks(rows[key])]
        holds = [_OPS[op](v, b) for _, v, op, b in checks]
        records.append({
            "id": claim.id, "figure": claim.figure, "paper": claim.paper,
            "experiment": claim.experiment, "config": dataclasses.asdict(claim.config),
            "verdict": "holds" if all(holds) else "fails",
            "margin": min(_distance(v, op, b) for _, v, op, b in checks).hex(),
            "checks": [
                {"label": label, "value": v.hex(), "op": op, "bound": b.hex(), "holds": ok}
                for (label, v, op, b), ok in zip(checks, holds)
            ],
        })
    return records


def format_claims(records: Sequence[Dict[str, Any]]) -> str:
    """One row per claim, then one line per failing check."""
    table = format_table(
        ["claim", "figure", "paper", "margin", "verdict"],
        [[r["id"], r["figure"], r["paper"], f"{float.fromhex(r['margin']):+.3g}", r["verdict"]]
         for r in records],
    )
    failing = [
        f"{r['id']}: {c['label']}: {float.fromhex(c['value']):.6g} {c['op']} "
        f"{float.fromhex(c['bound']):.6g} does not hold"
        for r in records for c in r["checks"] if not c["holds"]
    ]
    return "\n".join([table, *failing])


def run_claims() -> int:
    """Check :data:`CLAIMS`, print them, write :data:`BENCH_FILE`; 1 if any fails, else 0."""
    records = evaluate_claims(CLAIMS)
    print(format_claims(records))
    doc = json.dumps({"claims": records}, indent=2, sort_keys=True)
    Path(BENCH_FILE).write_text(doc + "\n")
    return 0 if all(r["verdict"] == "holds" for r in records) else 1
