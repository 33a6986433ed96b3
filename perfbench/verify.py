"""Checks of workload outputs, made apart from the code under test.

Each check returns a list of problems (empty when the output is right).
Distances are recomputed here by breadth-first search over a window's own
edge lists, and closed forms are evaluated here, so a check never compares
the program with itself or with a stored copy of an earlier output.
"""
from __future__ import annotations

import hashlib
from collections import deque
from pathlib import Path

import numpy as np

# Matrices of projective order n satisfy rho(a)^n = +-I; the elliptic
# family is built so that this holds to rounding.
POWER_TOL = 1e-9


def adjacency_lists(n: int, edges_u, edges_v) -> list[list[int]]:
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in zip(np.asarray(edges_u).tolist(), np.asarray(edges_v).tolist()):
        adj[u].append(v)
        adj[v].append(u)
    return adj


def bfs_row(adj: list[list[int]], source: int) -> np.ndarray:
    """Edge-count distances from ``source``; -1 marks unreachable vertices."""
    dist = np.full(len(adj), -1, dtype=np.int64)
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        du = dist[u] + 1
        for v in adj[u]:
            if dist[v] < 0:
                dist[v] = du
                queue.append(v)
    return dist


def check_rows(name: str, D: np.ndarray, rows: dict[int, np.ndarray]) -> list[str]:
    """Rows of a reported distance matrix against recomputed BFS rows."""
    problems = []
    for s, row in rows.items():
        got = np.where(np.isfinite(D[s]), D[s], -1).astype(np.int64)
        bad = np.flatnonzero(got != row)
        if len(bad):
            t = int(bad[0])
            problems.append(f"{name}: d({s},{t}) reported {D[s, t]}, "
                            f"BFS gives {row[t]} ({len(bad)} entries differ)")
    return problems


def certificate(window, i: int, j: int, d: int) -> bool:
    """Truncation certificate of a window pair at window distance d.

    A geodesic shorter than d would have to leave the ball of radius R or
    the depth cap, which costs at least the limits below; so d at or below
    both limits is the distance in the whole cusped space.
    """
    R = window.meta["radius"]
    md = window.meta.get("max_depth", R)
    d0 = window.meta["dist_from_id"]
    lim = (R + 1 - d0[i]) + (R + 1 - d0[j])
    lim_depth = (md + 1 - window.depth[i]) + (md + 1 - window.depth[j])
    return 0 <= d <= min(lim, lim_depth)


def check_exact_metric(window, rows: dict[int, np.ndarray], metric,
                       rng: np.random.Generator, per_row: int) -> list[str]:
    """On sampled certified pairs, BFS distance equals the exact metric."""
    problems = []
    checked = 0
    for s, row in rows.items():
        cand = [t for t in rng.permutation(len(row)).tolist()
                if t != s and certificate(window, s, t, int(row[t]))][:per_row]
        for t in cand:
            exact = metric.dist(window.vertices[s], window.vertices[t])
            checked += 1
            if exact != row[t]:
                problems.append(f"exact metric: d({s},{t}) = {exact}, "
                                f"window BFS gives {row[t]}")
    if checked == 0:
        problems.append("exact metric: no certified pair was sampled")
    return problems


def four_point_defect(rows: dict[int, np.ndarray], quad) -> float:
    """Half the gap between the two largest pair sums of a quadruple."""
    i, j, k, l = (int(x) for x in quad)
    sums = sorted([rows[i][j] + rows[k][l], rows[i][k] + rows[j][l],
                   rows[i][l] + rows[j][k]])
    return (sums[2] - sums[1]) / 2.0


def check_witness(rows: dict[int, np.ndarray], quad, reported: float) -> list[str]:
    got = four_point_defect(rows, quad)
    if got != reported:
        return [f"delta: defect at witness {tuple(quad)} is {got}, "
                f"reported delta {reported}"]
    return []


def check_lipschitz(src_adj, tgt_adj, vertex_map, sources) -> list[str]:
    """d_target(p(u), p(v)) <= d_source(u, v) on every pair from ``sources``."""
    problems = []
    vmap = np.asarray(vertex_map)
    for s in sources:
        ds = bfs_row(src_adj, s)
        dt = bfs_row(tgt_adj, int(vmap[s]))[vmap]
        bad = np.flatnonzero((ds >= 0) & ((dt < 0) | (dt > ds)))
        if len(bad):
            t = int(bad[0])
            problems.append(f"lipschitz: source d({s},{t}) = {ds[t]} but "
                            f"image distance {dt[t]}")
    return problems


def f2_ball_size(r: int) -> int:
    """Elements of word length <= r in the free group of rank 2."""
    return 2 * 3 ** r - 1


def check_ball_sizes(sizes: dict[int, int]) -> list[str]:
    return [f"ball: radius {r} has {n} elements, closed form {f2_ball_size(r)}"
            for r, n in sizes.items() if n != f2_ball_size(r)]


def check_power_identity(member: dict, n: int) -> list[str]:
    """rho_n(a)^n and rho_n(b)^n equal +I or -I."""
    problems = []
    for name, m in member.items():
        m = np.asarray(m, dtype=float)
        p = np.linalg.matrix_power(m, n)
        eye = np.eye(m.shape[0])
        dev = min(np.abs(p - eye).max(), np.abs(p + eye).max())
        if not dev <= POWER_TOL:
            problems.append(f"power: rho_{n}({name})^{n} is {dev:.3e} from +-I")
    return problems


def check_injectivity(report: dict, n: int, r: int) -> list[str]:
    """A cyclic filling of order n is injective on balls of radius
    floor((n-1)/2); when that reaches r the report must say so."""
    problems = []
    if report.get("ball_size") != f2_ball_size(r):
        problems.append(f"injectivity n={n}: ball of {report.get('ball_size')} "
                        f"elements, closed form {f2_ball_size(r)}")
    if (n - 1) // 2 >= r and not (report.get("group_injective") and all(
            p.get("injective") for p in report.get("peripheral", ()))):
        problems.append(f"injectivity n={n}: not injective at radius {r} "
                        f"<= floor((n-1)/2)")
    return problems


def check_summary(code: int, summary: dict, n_tasks: int) -> list[str]:
    """One entry per task, and an exit code and summary verdict that agree
    with the task verdicts (0 exactly when every task passes)."""
    problems = []
    tasks = summary.get("tasks", [])
    if len(tasks) != n_tasks:
        problems.append(f"scenario: {len(tasks)} task entries for {n_tasks} tasks")
    all_pass = all(t.get("pass") for t in tasks)
    if (code == 0) != all_pass or summary.get("pass") != all_pass:
        problems.append(f"scenario: exit code {code} and summary pass "
                        f"{summary.get('pass')} disagree with the tasks")
    return problems


def dir_digest(path) -> str:
    """Digest of every file name and its bytes under ``path``."""
    h = hashlib.sha256()
    root = Path(path)
    for f in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(str(f.relative_to(root)).encode() + b"\0")
        h.update(f.read_bytes() + b"\0")
    return h.hexdigest()
