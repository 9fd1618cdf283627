"""The benchmark's own computations, made apart from the program.

Everything here reads the JSON payloads directly and uses numpy only: an
evaluator for every cost kind the generator writes, exhaustive search over whole
policy classes, a dense backward recursion for large nodewise classes,
MDP backward induction, policy iteration for the stationary fixed point,
and the stagewise-independent recursion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


# -- trees -------------------------------------------------------------------------


@dataclass
class Tree:
    parent: list[int | None]
    stage: list[int]
    prob: list[float]
    obs: list[tuple[float, ...]]
    children: list[list[int]]
    paths: list[list[int]]
    leaves: list[int]
    leaf_prob: dict[int, float]

    @classmethod
    def from_json(cls, data: dict) -> "Tree":
        nodes = sorted(data["nodes"], key=lambda n: n["id"])
        parent = [n.get("parent") for n in nodes]
        children: list[list[int]] = [[] for _ in nodes]
        for n in nodes:
            if n.get("parent") is not None:
                children[n["parent"]].append(n["id"])
        paths: list[list[int]] = []
        for n in nodes:
            p = parent[n["id"]]
            paths.append([n["id"]] if p is None else paths[p] + [n["id"]])
        leaves = [n["id"] for n in nodes if not children[n["id"]]]
        prob = [float(n["cond_prob"]) for n in nodes]
        leaf_prob = {}
        for leaf in leaves:
            acc = 1.0
            for i in paths[leaf]:
                acc *= prob[i]
            leaf_prob[leaf] = acc
        return cls(parent, [n["stage"] for n in nodes], prob,
                   [tuple(map(float, n["obs"])) for n in nodes], children, paths,
                   leaves, leaf_prob)

    def below(self, node: int) -> list[int]:
        return [leaf for leaf in self.leaves if node in self.paths[leaf]]


def grids_of(cls_json: dict, n_nodes: int) -> list[np.ndarray]:
    """Per-node feasible decisions as (k, decision_dim) arrays."""
    return [np.asarray(cls_json["feasible"][str(i)], dtype=float) for i in range(n_nodes)]


# -- cost evaluation ------------------------------------------------------------------


def _axis(values: np.ndarray, pos: int, ndim: int) -> np.ndarray:
    shape = [1] * ndim
    shape[pos] = len(values)
    return values.reshape(shape)


def _poly(terms, x_at, u_at, ndim):
    """Sum of coef * prod(var ** power); a var that is out of range drops its term."""
    total = np.zeros([1] * ndim)
    for term in terms:
        prod = np.full([1] * ndim, float(term["coef"]))
        for role, idx, comp, power in term["vars"]:
            f = x_at(idx, comp) if role == "x" else u_at(idx, comp)
            if f is None:
                prod = None
                break
            prod = prod * f ** int(power)
        if prod is not None:
            total = total + prod
    return total


def leaf_table(tree: Tree, grids: list[np.ndarray], cost: dict, leaf: int) -> np.ndarray:
    """Objective on the leaf's path for every grid history along that path.

    Axis k indexes the feasible list of the k-th node on the root path.
    """
    path = tree.paths[leaf]
    T = len(path) - 1
    ndim = T + 1
    obs = [tree.obs[i] for i in path]
    U = [grids[i] for i in path]
    shape = tuple(len(g) for g in U)

    def u_axis(s, comp):
        return _axis(U[s][:, comp], s, ndim)

    if cost["form"] == "general":
        if "poly" in cost:
            def x_at(s, c):
                return obs[s][c] if 0 <= s <= T else None

            def u_at(s, c):
                return u_axis(s, c) if 0 <= s <= T else None

            out = _poly(cost["poly"]["terms"], x_at, u_at, ndim)
        elif "builtin" in cost:
            name = cost["builtin"]
            out = np.zeros([1] * ndim)
            if name == "quadratic_tracking":
                weights = cost.get("params", {}).get("weights")
                for s in range(ndim):
                    w = 1.0 if weights is None else float(weights[s])
                    for i in range(U[s].shape[1]):
                        out = out + w * (u_axis(s, i) - obs[s][i % len(obs[s])]) ** 2
            else:
                raise ValueError(f"unknown builtin {name!r}")
        elif "table" in cost:
            atol = float(cost["table"].get("atol", 1e-9))
            out = np.full(shape, np.nan)
            for e in cost["table"]["entries"]:
                ex = np.asarray(e["x"], dtype=float)
                if ex.shape != (ndim, len(obs[0])) or np.abs(ex - np.asarray(obs)).max() > atol:
                    continue
                idx = []
                for s, u in enumerate(e["u"]):
                    hit = np.nonzero(np.abs(U[s] - np.asarray(u)).max(axis=1) <= atol)[0]
                    if not len(hit):
                        break
                    idx.append(hit)
                else:
                    for pos in np.ndindex(*(len(h) for h in idx)):
                        key = tuple(int(h[p]) for h, p in zip(idx, pos))
                        if np.isnan(out[key]):
                            out[key] = float(e["value"])
            if np.isnan(out).any():
                raise ValueError(f"table misses a history on leaf {leaf}")
        else:
            raise ValueError("general cost needs poly, builtin or table")
    else:
        gamma, lag = float(cost["gamma"]), int(cost["lag"])
        out = np.zeros([1] * ndim)
        for t in range(1, T + 1):
            x0, u0 = max(0, t - lag), max(0, t - lag)
            nx, nu = t + 1 - x0, t - u0

            def x_at(off, c, x0=x0, nx=nx):
                pos = nx - 1 - off
                return obs[x0 + pos][c] if pos >= 0 else None

            def u_at(off, c, u0=u0, nu=nu):
                pos = nu - 1 - off
                return u_axis(u0 + pos, c) if pos >= 0 else None

            spec = cost["stage_costs"][t - 1]
            if "poly" not in spec:
                raise ValueError("only poly stage costs are generated")
            out = out + gamma ** (t - 1) * _poly(spec["poly"]["terms"], x_at, u_at, ndim)
    return np.broadcast_to(out, shape).astype(float)


class Problem:
    """A bundle with its leaf tables: the expected cost of any grid policy."""

    def __init__(self, bundle: dict):
        self.tree = Tree.from_json(bundle["tree"])
        self.kind = bundle["policy_class"]["kind"]
        self.grids = grids_of(bundle["policy_class"], len(self.tree.parent))
        self.tables = {leaf: leaf_table(self.tree, self.grids, bundle["cost"], leaf)
                       for leaf in self.tree.leaves}

    def index_policy(self, decisions: dict) -> list[int]:
        """Grid positions of a policy given as ``{"node": [values]}``."""
        out = []
        for i, g in enumerate(self.grids):
            u = np.asarray(decisions[str(i)], dtype=float)
            hit = np.nonzero(np.abs(g - u).max(axis=1) <= 1e-12)[0]
            if not len(hit):
                raise ValueError(f"decision {u.tolist()} at node {i} is off the grid")
            out.append(int(hit[0]))
        return out

    def policy_json(self, idx: list[int]) -> dict:
        return {"decision_dim": int(self.grids[0].shape[1]),
                "decisions": {str(i): self.grids[i][k].tolist() for i, k in enumerate(idx)}}

    def value(self, idx: list[int]) -> float:
        total = 0.0
        for leaf in self.tree.leaves:
            key = tuple(idx[i] for i in self.tree.paths[leaf])
            total += self.tree.leaf_prob[leaf] * float(self.tables[leaf][key])
        return total

    def one_node_changes(self, idx: list[int]) -> list[tuple[float, int, int]]:
        """(cost change, node, new position) for every single-node deviation."""
        out = []
        for n, g in enumerate(self.grids):
            below = self.tree.below(n)
            for k in range(len(g)):
                if k == idx[n]:
                    continue
                alt = list(idx)
                alt[n] = k
                delta = 0.0
                for leaf in below:
                    path = self.tree.paths[leaf]
                    delta += self.tree.leaf_prob[leaf] * float(
                        self.tables[leaf][tuple(alt[i] for i in path)]
                        - self.tables[leaf][tuple(idx[i] for i in path)])
                out.append((delta, n, k))
        return out

    def slots(self):
        """Enumeration slots: one per node (nodewise) or per stage (history-blind).

        Returns the candidates of each slot, the slot of each node and, for
        history-blind classes, each node's grid position of every candidate
        of its stage (the values common to all nodes of that stage).
        """
        n = len(self.grids)
        if self.kind == "nodewise":
            return [list(range(len(g))) for g in self.grids], list(range(n)), None
        stages = sorted(set(self.tree.stage))
        shared = []
        for t in stages:
            ids = [i for i in range(n) if self.tree.stage[i] == t]
            first = [tuple(r) for r in self.grids[ids[0]].tolist()]
            rest = [{tuple(r) for r in self.grids[i].tolist()} for i in ids[1:]]
            shared.append([u for u in first if all(u in s for s in rest)])
        pos = [[[tuple(r) for r in self.grids[i].tolist()].index(u)
                for u in shared[self.tree.stage[i]]] for i in range(n)]
        return [list(range(len(s))) for s in shared], [self.tree.stage[i] for i in range(n)], pos

    def exhaustive(self, cap: int = 300_000) -> tuple[float, list[int]]:
        """Exhaustive minimum over every policy of the class, first minimiser."""
        slot_sizes, slot_of, pos = self.slots()
        sizes = [len(s) for s in slot_sizes]
        count = math.prod(sizes)
        if count > cap:
            raise ValueError(f"{count} policies exceed the exhaustive cap {cap}")
        codes = np.arange(count)
        digits = []
        stride = count
        for k in sizes:
            stride //= k
            digits.append((codes // stride) % k)
        total = np.zeros(count)
        for leaf in self.tree.leaves:
            path = self.tree.paths[leaf]
            if pos is None:
                key = tuple(digits[slot_of[i]] for i in path)
            else:
                key = tuple(np.asarray(pos[i])[digits[slot_of[i]]] for i in path)
            total += self.tree.leaf_prob[leaf] * self.tables[leaf][key]
        best = int(np.argmin(total))
        node_idx = []
        for i in range(len(self.grids)):
            d = int(digits[slot_of[i]][best])
            node_idx.append(d if pos is None else pos[i][d])
        return float(total[best]), node_idx

    def backward(self) -> tuple[float, list[int]]:
        """Dense backward recursion for nodewise classes and its first-argmin policy."""
        if self.kind != "nodewise":
            raise ValueError("the recursion needs a nodewise class")
        tree = self.tree
        v: dict[int, np.ndarray] = {}
        V: dict[int, np.ndarray] = {}
        for n in sorted(range(len(self.grids)), key=lambda i: -tree.stage[i]):
            if not tree.children[n]:
                v[n] = self.tables[n]
            else:
                v[n] = sum(tree.prob[c] * V[c] for c in tree.children[n])
            V[n] = v[n].min(axis=-1)
        idx = [0] * len(self.grids)

        def descend(n, head):
            row = v[n][head]
            k = int(np.argmin(row))
            idx[n] = k
            for c in tree.children[n]:
                descend(c, head + (k,))

        descend(0, ())
        return float(V[0]), idx


# -- MDPs ----------------------------------------------------------------------------


def mdp_arrays(mdp: dict) -> tuple[np.ndarray, np.ndarray, float]:
    """Kernel as (a, n, n), cost as (n, n, a), and the discount."""
    cost = np.asarray(mdp["cost"], dtype=float)
    kernel = np.asarray(mdp["kernel"], dtype=float)
    if kernel.ndim == 2:
        kernel = np.broadcast_to(kernel, (cost.shape[2],) + kernel.shape)
    return kernel, cost, float(mdp["gamma"])


def q_values(kernel, cost, gamma, v) -> np.ndarray:
    """Q[i, a] = sum_j K_a[i, j] (c[i, j, a] + gamma v[j])."""
    return np.einsum("aij,ija->ia", kernel, cost) + gamma * np.einsum("aij,j->ia", kernel, v)


def mdp_backward(mdp: dict, horizon: int) -> list[np.ndarray]:
    kernel, cost, gamma = mdp_arrays(mdp)
    values = [np.zeros(cost.shape[0])]
    for _ in range(horizon):
        values.insert(0, q_values(kernel, cost, gamma, values[0]).min(axis=1))
    return values


def fixed_point(mdp: dict) -> np.ndarray:
    """Stationary fixed point by policy iteration with exact linear solves."""
    kernel, cost, gamma = mdp_arrays(mdp)
    n = cost.shape[0]
    rows = np.arange(n)
    policy = q_values(kernel, cost, gamma, np.zeros(n)).argmin(axis=1)
    for _ in range(1000):
        P = kernel[policy, rows, :]
        c = np.einsum("ij,ij->i", P, cost[rows, :, policy])
        v = np.linalg.solve(np.eye(n) - gamma * P, c)
        q = q_values(kernel, cost, gamma, v)
        better = q.min(axis=1) < q[rows, policy] - 1e-13
        if not better.any():
            return v
        policy = np.where(better, q.argmin(axis=1), policy)
    raise RuntimeError("policy iteration did not settle")


# -- stagewise independent problems --------------------------------------------------------


def sddp_root(spec: dict) -> float:
    roles = {"x": 0, "w": 1, "u": 2}
    terms = [(float(t["coef"]), [(roles[r], int(c), int(p)) for r, c, p in t["vars"]])
             for t in spec["cost"]["poly"]["terms"]]

    def step(x, w, u):
        seqs = (x, w, u)
        total = 0.0
        for coef, variables in terms:
            prod = coef
            for r, c, p in variables:
                prod *= seqs[r][c] ** p
            total += prod
        return total

    T, gamma = int(spec["horizon"]), float(spec["gamma"])
    atoms = [[(float(a["prob"]), tuple(a["value"])) for a in st] for st in spec["stage_noise"]]
    nxt = {w: 0.0 for _, w in atoms[T - 1]}
    for t in range(T - 1, -1, -1):
        states = [tuple(spec["initial_state"])] if t == 0 else [w for _, w in atoms[t - 1]]
        nxt = {x: min(sum(p * (step(x, w, tuple(u)) + gamma * nxt[w]) for p, w in atoms[t])
                      for u in spec["stage_decisions"][t])
               for x in states}
    return nxt[tuple(spec["initial_state"])]
