"""User and community embeddings from the bipartite posting multigraph."""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .checkpoint import float_rows
from .corpus import Corpus
from .lstm import _sigmoid
from .sentiment import tokenize, top_vocabulary

NEGATIVE_SAMPLES = 5
EDGE_BATCH = 128  # edges per minibatch step of train_embeddings


@dataclass
class BipartiteMultigraph:
    """One edge per post event; parallel edges preserved."""

    users: list[str]
    communities: list[str]
    edges: np.ndarray  # shape (E, 2): (user index, community index)

    @property
    def n_edges(self) -> int:
        return int(self.edges.shape[0])


def _multigraph(pairs, communities: dict[str, int]) -> BipartiteMultigraph:
    """One edge per (name, community) of ``pairs``, in order. Each name, and
    each community not yet in ``communities``, takes the next index where it
    is first seen."""
    names: dict[str, int] = {}
    edges = [(names.setdefault(name, len(names)), communities.setdefault(c, len(communities)))
             for name, c in pairs]
    return BipartiteMultigraph(users=list(names), communities=list(communities),
                               edges=np.asarray(edges, dtype=np.intp).reshape(-1, 2))


def build_bipartite(corpus: Corpus) -> BipartiteMultigraph:
    """One (user, community) edge per post, in post time order."""
    return _multigraph(((post.author, post.community) for post in corpus.posts_by_time), {})


def build_word_bipartite(corpus: Corpus, max_vocab: int | None = None) -> BipartiteMultigraph:
    """Word-community multigraph: one edge per token occurrence in a post.

    Reuses the user-community trainer to give word vectors that live in the
    same space as the community vectors (desk-scale substitute for external
    pretrained word vectors). Every post's community is indexed, whether or
    not the post keeps a token, since their count sets the negative draws.
    """
    posts = corpus.posts_by_time
    vocab = None
    if max_vocab is not None:
        vocab = top_vocabulary((tokenize(post.body) for post in posts), max_vocab)
    communities = {c: k for k, c in enumerate(dict.fromkeys(post.community for post in posts))}
    return _multigraph(((tok, post.community) for post in posts for tok in tokenize(post.body)
                        if vocab is None or tok in vocab), communities)


@dataclass
class EmbeddingTable:
    users: list[str]
    communities: list[str]
    user_vectors: np.ndarray  # (n_users, d)
    community_vectors: np.ndarray  # (n_communities, d)
    dim: int
    negatives: int = NEGATIVE_SAMPLES

    def __post_init__(self):
        self._uix = {u: i for i, u in enumerate(self.users)}
        self._cix = {c: i for i, c in enumerate(self.communities)}

    def user_vector(self, user: str) -> np.ndarray:
        return self.user_vectors[self._uix[user]]

    def community_vector(self, community: str) -> np.ndarray:
        return self.community_vectors[self._cix[community]]

    def has_user(self, user: str) -> bool:
        return user in self._uix

    def has_community(self, community: str) -> bool:
        return community in self._cix


def edge_losses(u: np.ndarray, c_pos: np.ndarray, c_negs: np.ndarray) -> np.ndarray:
    """Negative-sampling losses of a batch of positive edges: user vectors
    ``u`` (B, d), their communities' ``c_pos`` (B, d) and the drawn
    negatives ``c_negs`` (B, k, d).

    The printed objective's log(-sigma(x)) is undefined; this uses the
    standard skip-gram form log(sigma(-u.c_n)) for the negative term.
    """
    pos = -np.log(_sigmoid((u * c_pos).sum(axis=1)))
    neg = -np.log(_sigmoid(-(c_negs * u[:, None, :]).sum(axis=2))).sum(axis=1)
    return pos + neg


def edge_gradients(u: np.ndarray, c_pos: np.ndarray, c_negs: np.ndarray):
    """Analytic gradients of ``edge_losses`` wrt (u, c_pos, each c_neg), for
    a batch of edges given as ``edge_losses`` takes them."""
    g_pos = _sigmoid((u * c_pos).sum(axis=1)) - 1.0
    g_negs = _sigmoid((c_negs * u[:, None, :]).sum(axis=2))
    du = g_pos[:, None] * c_pos
    for k in range(c_negs.shape[1]):
        du += g_negs[:, k, None] * c_negs[:, k]
    dc_pos = g_pos[:, None] * u
    dc_negs = g_negs[:, :, None] * u[:, None, :]
    return du, dc_pos, dc_negs


def _subtract_rows(flat: np.ndarray, rows: np.ndarray, updates: np.ndarray) -> None:
    """``np.subtract.at(M, rows, updates)``, bit for bit, on the C-order
    matrix M of ``updates.shape[1]`` columns whose entries ``flat`` views.
    Entry (row, column) is flat index row * d + column and takes its updates
    one at a time, in order, as there; one 1-D ``subtract.at`` does less
    work per update than one over rows."""
    d = updates.shape[1]
    np.subtract.at(flat, (rows[:, None] * d + np.arange(d)).ravel(), updates.ravel())


def train_embeddings(
    graph: BipartiteMultigraph,
    dim: int,
    negatives: int = NEGATIVE_SAMPLES,
    *,
    epochs: int,
    lr_start: float = 0.025,
    lr_end: float = 1e-4,
    seed: int = 0,
) -> EmbeddingTable:
    """Minibatched SGD over shuffled edges with ``negatives`` uniform
    negatives per edge. Each epoch takes a permutation of the edges and one
    draw of every edge's negatives, then steps ``EDGE_BATCH`` edges at a
    time: every edge of a batch reads the vectors as they were before the
    batch, keeps its own learning rate from the linear schedule over all
    edge steps, and the updates are summed into the vectors in edge order.
    Deterministic for a fixed seed."""
    if graph.n_edges == 0:
        raise ValueError("cannot train embeddings on an empty graph")
    rng = np.random.default_rng(seed)
    n_users, n_comms = len(graph.users), len(graph.communities)
    U = rng.uniform(-0.5 / dim, 0.5 / dim, size=(n_users, dim))
    C = rng.uniform(-0.5 / dim, 0.5 / dim, size=(n_comms, dim))

    flat_U, flat_C = U.reshape(-1), C.reshape(-1)  # views: both are C-contiguous
    n_edges = graph.n_edges
    denominator = max(1, epochs * n_edges - 1)
    for epoch in range(epochs):
        order = rng.permutation(n_edges)
        # one draw per epoch gives the same values as one draw of ``negatives`` per edge
        draws = rng.integers(0, n_comms, size=(n_edges, negatives))
        for start in range(0, n_edges, EDGE_BATCH):
            edges = graph.edges[order[start:start + EDGE_BATCH]]
            negs = draws[start:start + EDGE_BATCH]
            steps = epoch * n_edges + start + np.arange(len(edges))
            lr = (lr_start - (lr_start - lr_end) * (steps / denominator))[:, None]
            du, dc_pos, dc_negs = edge_gradients(U[edges[:, 0]], C[edges[:, 1]], C[negs])
            _subtract_rows(flat_U, edges[:, 0], lr * du)
            # each edge's positive community, then its negatives
            _subtract_rows(flat_C, np.concatenate([edges[:, 1:], negs], axis=1).ravel(),
                           (lr[:, :, None] * np.concatenate([dc_pos[:, None], dc_negs], axis=1))
                           .reshape(-1, dim))
        if not (np.isfinite(U).all() and np.isfinite(C).all()):
            raise FloatingPointError(
                f"non-finite embeddings after epoch {epoch + 1} (lr now {lr[-1, 0]:g}); "
                "lower the learning rate"
            )

    return EmbeddingTable(
        users=list(graph.users),
        communities=list(graph.communities),
        user_vectors=U,
        community_vectors=C,
        dim=dim,
        negatives=negatives,
    )


def loss(
    graph: BipartiteMultigraph,
    table: EmbeddingTable,
    seed: int = 0,
    sample_size: int | None = None,
) -> float:
    """Monte Carlo estimate of the mean per-edge objective on a seeded edge
    sample with seeded negatives, scored in one batch."""
    if table.user_vectors.shape[1] != table.dim or table.community_vectors.shape[1] != table.dim:
        raise ValueError("embedding table dimensions are inconsistent")
    rng = np.random.default_rng(seed)
    edges = graph.edges
    if sample_size is not None and sample_size < graph.n_edges:
        edges = edges[rng.choice(graph.n_edges, size=sample_size, replace=False)]
    # one (n, negatives) draw gives the same values as one draw of negatives per edge
    negs = rng.integers(0, len(table.communities), size=(len(edges), table.negatives))
    C = table.community_vectors
    return float(edge_losses(table.user_vectors[edges[:, 0]], C[edges[:, 1]], C[negs]).mean())


def save_vectors(path, names: list[str], vectors: np.ndarray) -> None:
    """Text vector format: header ``<count> <dim>``, then ``id dim v1 .. vd``."""
    n, d = vectors.shape
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{n} {d}\n")
        fh.writelines(f"{name} {d} {text}\n" for name, text in zip(names, float_rows(vectors)))


def load_vectors(path) -> dict[str, np.ndarray]:
    """Read a ``save_vectors`` file. A header that is not a count and a
    dimension, two integers of at least 0, is a ValueError naming the file;
    a line without a name, the header's dimension and that many finite
    coordinates, or with the name of an earlier line, is a ValueError naming
    the file and the line."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            count, dim = map(int, fh.readline().split())
        except ValueError:
            count = dim = -1
        if count < 0 or dim < 0:
            raise ValueError(f"{path}: malformed vector file header")
        out = {}
        for number, line in enumerate(fh, 2):
            parts = line.split()
            if not parts:
                continue
            try:
                fits = len(parts) == 2 + dim and int(parts[1]) == dim
            except ValueError:
                fits = False
            if not fits:
                raise ValueError(f"{path}:{number}: expected a name, {dim} and {dim} coordinates")
            try:
                vector = np.asarray([float(x) for x in parts[2:]])
            except ValueError:
                vector = None
            if vector is None or not np.isfinite(vector).all():
                raise ValueError(f"{path}:{number}: a coordinate of {parts[0]!r} is not a finite number")
            if parts[0] in out:
                raise ValueError(f"{path}:{number}: a second vector for {parts[0]!r}")
            out[parts[0]] = vector
    if len(out) != count:
        raise ValueError(f"{path}: header count {count} != {len(out)} vectors")
    return out


def load_table(directory) -> tuple[EmbeddingTable, dict[str, np.ndarray]]:
    """The user/community table and the word vectors an embed run wrote to
    ``directory`` (users.vec, communities.vec, words.vec)."""
    d = Path(directory)
    table = sorted_table(load_vectors(d / "users.vec"), load_vectors(d / "communities.vec"))
    return table, load_vectors(d / "words.vec")


def sorted_table(users: dict[str, np.ndarray], communities: dict[str, np.ndarray]) -> EmbeddingTable:
    """The table of the user and community vectors by name, in name order."""
    names_u, names_c = sorted(users), sorted(communities)
    user_vectors = np.vstack([users[u] for u in names_u])
    return EmbeddingTable(
        users=names_u, communities=names_c, user_vectors=user_vectors,
        community_vectors=np.vstack([communities[c] for c in names_c]), dim=user_vectors.shape[1],
    )
