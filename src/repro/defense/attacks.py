"""Byzantine attack models: a seeded, declarative attacker roster.

An :class:`AttackPlan` describes *who* is malicious and *what* they send.  Like
the fault layer's :class:`~repro.faults.plan.FaultPlan`, the plan itself never
draws random numbers: roster membership and every attack payload are pure
functions of ``(plan.seed, round, client)``, so the same plan reproduces the
same adversary regardless of the algorithm, execution backend, or how a run is
checkpointed and resumed.

Attack models
-------------
``sign_flip``
    The attacker sends ``ref - scale · (w - ref)``: its honest update direction
    reflected (and optionally amplified) around the broadcast model ``ref``.
``gauss``
    The honest update plus i.i.d. Gaussian noise of standard deviation
    ``scale`` — the classic omniscient-free noise attack.
``scale``
    Model replacement: ``ref + scale · (w - ref)``, the boosted update used in
    backdoor/model-replacement attacks.
``loss_inflation``
    Leaves model uploads untouched but multiplies every *scalar loss report*
    by ``scale`` — aimed squarely at the minimax weight ascent (Eq. (7)),
    where an inflated loss drags the fairness weights toward the attacker.
``label_flip``
    A data-poisoning attack applied via :func:`apply_label_flip` where the
    algorithm resolves ``faults=``, before training: the attacker's shard
    labels are remapped ``y → (C-1) - y``.  No payload is tampered at
    runtime.

Colluding attackers (``colluding=True`` or an explicit group) share a single
per-round noise draw, so e.g. ``gauss`` colluders submit *identical* poisoned
models — the worst case for distance-based defenses like Krum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.rng import keyed_rng
from repro.utils.spec import dataclass_schema, parse_spec
from repro.utils.validation import check_probability

__all__ = ["ATTACKS", "AttackPlan", "apply_label_flip", "one_per_edge_roster"]

#: Recognized attack model names (``"none"`` additionally disables the roster).
ATTACKS = ("sign_flip", "gauss", "scale", "loss_inflation", "label_flip")

#: Attack models that tamper with *array* (model) payloads.
MODEL_ATTACKS = ("sign_flip", "gauss", "scale")

#: Default magnitude per attack when ``AttackPlan.scale`` is left unset.
_DEFAULT_SCALE = {"sign_flip": 1.0, "gauss": 1.0, "scale": 10.0,
                  "loss_inflation": 10.0, "label_flip": 1.0}


@dataclass(frozen=True)
class AttackPlan:
    """Seeded description of the Byzantine adversary for one run.

    Parameters
    ----------
    attack:
        One of :data:`ATTACKS`, or ``"none"`` (no adversary).
    fraction:
        Probability each client is Byzantine, drawn once per client from the
        roster stream keyed on ``(seed, client_id)`` — membership is stable
        across rounds, algorithms, and roster sizes.
    clients:
        Explicitly Byzantine client ids, unioned with the ``fraction`` draw.
    colluding:
        When true, all attackers share one attack draw per round — colluders
        submit identical poisoned payloads instead of independent ones.
    scale:
        Attack magnitude (reflection gain, noise std, boost factor, or loss
        multiplier); ``None`` selects a per-attack default.
    start_round:
        First round the adversary acts; roster members behave honestly before
        it (models a late compromise).
    seed:
        Root seed of the attack process — independent of both the algorithm
        seed and the fault seed.
    """

    attack: str = "none"
    fraction: float = 0.0
    clients: tuple[int, ...] = ()
    colluding: bool = False
    scale: float | None = None
    start_round: int = 0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.attack != "none" and self.attack not in ATTACKS:
            raise ValueError(f"unknown attack {self.attack!r}; "
                             f"options: {list(ATTACKS)}")
        check_probability(self.fraction, "fraction")
        object.__setattr__(self, "clients",
                           tuple(int(c) for c in self.clients))
        if any(c < 0 for c in self.clients):
            raise ValueError(f"client ids must be >= 0, got {self.clients}")
        if self.scale is not None and self.scale <= 0:
            raise ValueError(f"scale must be > 0 or None, got {self.scale}")
        if self.start_round < 0:
            raise ValueError(
                f"start_round must be >= 0, got {self.start_round}")

    # ------------------------------------------------------------- inspection
    @property
    def is_null(self) -> bool:
        """True when no client can ever attack under this plan."""
        return (self.attack == "none"
                or (self.fraction == 0.0 and not self.clients))

    @property
    def effective_scale(self) -> float:
        """The configured ``scale``, or the attack model's default."""
        if self.scale is not None:
            return float(self.scale)
        return _DEFAULT_SCALE.get(self.attack, 1.0)

    def is_byzantine(self, client_id: int) -> bool:
        """Roster membership — a pure function of ``(seed, client_id)``."""
        if self.is_null:
            return False
        if int(client_id) in self.clients:
            return True
        if self.fraction <= 0.0:
            return False
        gen = self._rng("roster", int(client_id))
        return bool(gen.random() < self.fraction)

    def roster(self, num_clients: int) -> tuple[int, ...]:
        """All Byzantine client ids among ``range(num_clients)``."""
        return tuple(c for c in range(num_clients) if self.is_byzantine(c))

    def active(self, round_index: int, client_id: int) -> bool:
        """Does this client attack in this round?"""
        return (round_index >= self.start_round
                and self.is_byzantine(client_id))

    # ---------------------------------------------------------------- attacks
    def _rng(self, kind: str, *key: int) -> np.random.Generator:
        return keyed_rng(self.seed, "byzantine", kind, *key)

    def _draw_key(self, round_index: int, client_id: int) -> tuple[int, ...]:
        # Colluders share one draw per round; independent attackers get one
        # per (round, client).
        if self.colluding:
            return (round_index,)
        return (round_index, int(client_id))

    def tamper_model(self, round_index: int, client_id: int,
                     payload: np.ndarray,
                     ref: np.ndarray | None) -> np.ndarray:
        """The poisoned model upload replacing ``payload`` this round.

        ``ref`` is the broadcast (reference) model the honest update was
        computed from; attacks operate on the *delta* against it when
        available, matching how model-poisoning is defined in the literature.
        """
        s = self.effective_scale
        if self.attack == "sign_flip":
            if ref is None:
                return -s * payload
            return ref - s * (payload - ref)
        if self.attack == "scale":
            if ref is None:
                return s * payload
            return ref + s * (payload - ref)
        if self.attack == "gauss":
            gen = self._rng("gauss", *self._draw_key(round_index, client_id))
            return payload + s * gen.standard_normal(payload.size)
        return payload

    def tamper_loss(self, round_index: int, client_id: int,
                    loss: float) -> float:
        """The poisoned scalar loss report replacing ``loss`` this round."""
        if self.attack == "loss_inflation":
            return float(loss) * self.effective_scale
        return float(loss)

    # ----------------------------------------------------------- construction
    @classmethod
    def none(cls) -> "AttackPlan":
        """The adversary-free plan."""
        return cls()

    @classmethod
    def parse(cls, spec: str) -> "AttackPlan":
        """Build a plan from a CLI spec.

        The first (or only) bare token names the attack; the rest are
        ``key=value`` pairs (``colluding`` takes ``1/0/true/false/yes/no/
        on/off``)::

            AttackPlan.parse("sign_flip,fraction=0.2,scale=5,seed=1")
            AttackPlan.parse("label_flip,clients=0|3|7")
            AttackPlan.parse("gauss,fraction=0.3,colluding=1,start_round=10")
        """
        return cls(**parse_spec(spec, "attack", dataclass_schema(cls),
                                leading="attack"))


def one_per_edge_roster(dataset, fraction: float) -> tuple[int, ...]:
    """The first client of each of the first ``fraction``·clients edge areas.

    A deterministic roster (at least one attacker, at most one per area) for
    an :class:`AttackPlan`'s ``clients``: every run and every defense faces
    the same per-cohort breakdown ratio.  Assumes equal-sized areas, so
    area ``e``'s first client is ``e`` times the first area's size.
    """
    per_edge = dataset.edges[0].num_clients
    n_byz = max(1, round(fraction * dataset.num_clients))
    return tuple(per_edge * e for e in range(min(n_byz, dataset.num_edges)))


def apply_label_flip(dataset, plan: AttackPlan):
    """Return ``dataset`` with the plan's attackers' shard labels flipped.

    Byzantine clients (flat edge-major ids, matching
    :func:`repro.sim.builder.build_edge_servers`) get every label remapped
    ``y → (num_classes - 1) - y``; honest shards are shared, not copied.  A
    null plan — or one whose attack is not ``label_flip`` — returns the
    dataset unchanged, so callers can apply this unconditionally.
    """
    from repro.data.dataset import Dataset, EdgeAreaData, FederatedDataset

    if plan is None or plan.is_null or plan.attack != "label_flip":
        return dataset
    c_max = dataset.num_classes - 1
    edges = []
    client_id = 0
    flipped_any = False
    for edge_data in dataset.edges:
        shards = []
        for shard in edge_data.clients:
            if plan.is_byzantine(client_id):
                shards.append(Dataset(shard.X, c_max - shard.y,
                                      shard.num_classes))
                flipped_any = True
            else:
                shards.append(shard)
            client_id += 1
        edges.append(EdgeAreaData(shards, edge_data.test,
                                  name=edge_data.name))
    if not flipped_any:
        return dataset
    return FederatedDataset(edges, name=dataset.name)
