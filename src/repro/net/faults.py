"""Deterministic fault injection for the simulated network.

Alg. GMDJDistribEval assumes every site answers every round; real
distributed evaluation does not get that luxury. This module lets a run
declare, up front and reproducibly, exactly which messages misbehave:

- ``drop`` — the message leaves the sender (bytes are charged) but never
  arrives; the receiver finds nothing waiting;
- ``delay`` — the message is held in flight: the first receive attempt
  fails transiently, the next one delivers (``delay_s`` is the modeled
  in-flight delay, recorded in ``net.fault.delay_s``);
- ``duplicate`` — an extra copy crosses the wire (charged to
  ``net.fault.bytes``); the receiver de-duplicates it
  (``net.fault.deduplicated``), so results never change — only traffic;
- ``corrupt`` — the payload's magic byte is flipped so decoding fails
  loudly (never silently wrong data);
- ``crash`` — the site is down for whole leg attempts: every channel
  operation raises :class:`~repro.errors.SiteUnavailableError` until the
  rule's ``times`` budget of failed attempts is spent ("the site
  rebooted"). ``times=0`` keeps it down for every matching round.
- ``straggle`` — the site is slow, not wrong: the leg's site request
  carries ``delay_s`` of *real wall-clock* compute delay (the site
  process sleeps before evaluating). Unlike ``delay``, which models an
  in-flight message hold, ``straggle`` burns actual time — it exists to
  exercise the speculative re-execution path, where a backup leg races
  the sleeping straggler. The ``times`` budget means a backup attempt
  after the first firing runs at full speed.
- ``lose_state`` — the site forgets the answers it kept for positional
  fragments before the leg attempt, as a restart or a replica would: the
  leg's site request says so, so an in-process site and a site server
  lose the same state. A fragment positional against a lost answer is
  answered with :class:`~repro.errors.StateMismatch` and resent keyed.

A :class:`FaultPlan` is an immutable ordered rule list; all firing state
lives in the per-channel :class:`FaultInjector` it builds — the fault
*policy* a channel of either transport consults once per message — so
one plan can drive many :class:`~repro.net.channel.Network` instances
(benchmark repetitions, serial-vs-sockets comparisons) with identical
schedules. Fault rounds
are *wire* round indices: 0 is the base round, MD/chain rounds count
from 1 — the same numbers messages carry in ``round_index``.

Every injected fault appends a :class:`FaultEvent` (surfaced through
``Network.fault_events()`` into ``ExecutionStats``), increments
``net.fault.*`` counters in the channel's metrics registry, and emits a
``net.fault`` tracer span so ``repro trace`` timelines show recovery.
"""

from __future__ import annotations

import dataclasses
import json
import os
import random
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.errors import FaultSpecError, SiteUnavailableError
from repro.net.channel import DELIVER, DOWN, LATE, LOST, UP
from repro.net.message import Message

DROP = "drop"
DELAY = "delay"
DUPLICATE = "duplicate"
CORRUPT = "corrupt"
CRASH = "crash"
STRAGGLE = "straggle"
LOSE_STATE = "lose_state"

FAULT_KINDS = (DROP, DELAY, DUPLICATE, CORRUPT, CRASH, STRAGGLE, LOSE_STATE)
#: Kinds that fire once per leg attempt, not per message: no direction.
_ATTEMPT_KINDS = (CRASH, STRAGGLE, LOSE_STATE)

#: Wildcard for ``site`` and ``direction`` rule fields.
ANY = "*"

_MESSAGE_KINDS = (DROP, DELAY, DUPLICATE, CORRUPT)
_DIRECTIONS = (DOWN, UP, ANY)


@dataclass(frozen=True)
class FaultRule:
    """One deterministic injection rule.

    ``rounds`` is the set of wire round indices the rule applies to (an
    empty tuple means every round); ``times`` bounds how often it fires
    (0 = unlimited). For message kinds a firing affects one message; for
    ``crash`` a firing dooms one whole leg attempt, so "crash for two
    rounds" under a policy making ``k`` attempts per round is
    ``times = 2 * k``.
    """

    kind: str
    site: str = ANY
    rounds: tuple = ()
    direction: str = ANY
    times: int = 1
    delay_s: float = 0.05

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise FaultSpecError(
                f"unknown fault kind {self.kind!r}; expected one of "
                f"{', '.join(FAULT_KINDS)}"
            )
        if self.direction not in _DIRECTIONS:
            raise FaultSpecError(
                f"unknown direction {self.direction!r}; expected down, up or *"
            )
        if not isinstance(self.times, int) or self.times < 0:
            raise FaultSpecError(f"times must be an int >= 0, got {self.times!r}")
        if self.delay_s < 0:
            raise FaultSpecError(f"delay_s must be >= 0, got {self.delay_s!r}")
        object.__setattr__(self, "rounds", tuple(self.rounds))
        for round_index in self.rounds:
            if not isinstance(round_index, int) or round_index < 0:
                raise FaultSpecError(
                    f"fault rounds must be non-negative ints, got {round_index!r}"
                )

    def matches(self, site_id: str, round_index: int, direction: str = ANY) -> bool:
        if self.site != ANY and self.site != site_id:
            return False
        if self.rounds and round_index not in self.rounds:
            return False
        if (
            self.kind not in _ATTEMPT_KINDS
            and self.direction != ANY
            and direction != ANY
            and self.direction != direction
        ):
            return False
        return True

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "site": self.site,
            "rounds": list(self.rounds),
            "direction": self.direction,
            "times": self.times,
            "delay_s": self.delay_s,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "FaultRule":
        if not isinstance(payload, dict) or "kind" not in payload:
            raise FaultSpecError(f"fault rule must be a dict with 'kind', got {payload!r}")
        known = {"kind", "site", "rounds", "direction", "times", "delay_s"}
        unknown = set(payload) - known
        if unknown:
            raise FaultSpecError(
                f"unknown fault rule field(s) {sorted(unknown)} in {payload!r}"
            )
        fields = dict(payload)
        fields["rounds"] = tuple(fields.get("rounds", ()))
        return cls(**fields)


@dataclass(frozen=True)
class FaultEvent:
    """One fault that actually fired (kind, site, wire round, direction)."""

    kind: str
    site: str
    round_index: int
    direction: str = ANY


def _parse_rounds(text: str) -> tuple:
    try:
        if "-" in text:
            low, high = text.split("-", 1)
            low, high = int(low), int(high)
            if high < low:
                raise FaultSpecError(f"empty round range {text!r}")
            return tuple(range(low, high + 1))
        return (int(text),)
    except ValueError:
        raise FaultSpecError(f"cannot parse rounds {text!r}") from None


class FaultPlan:
    """An immutable, ordered schedule of :class:`FaultRule` entries.

    Stateless by design: per-rule firing counts live in each channel's
    :class:`FaultInjector`, so the same plan replayed against a fresh
    network reproduces the exact same fault schedule.
    """

    def __init__(self, rules: Sequence[FaultRule] = (), description: str = ""):
        rules = tuple(rules)
        for rule in rules:
            if not isinstance(rule, FaultRule):
                raise FaultSpecError(f"not a FaultRule: {rule!r}")
        self.rules = rules
        self.description = description

    def __len__(self) -> int:
        return len(self.rules)

    def __iter__(self):
        return iter(self.rules)

    def __bool__(self) -> bool:
        return bool(self.rules)

    def describe(self) -> str:
        if self.description:
            return self.description
        return "; ".join(
            f"{rule.kind} site={rule.site}"
            + (f" rounds={','.join(map(str, rule.rounds))}" if rule.rounds else "")
            + (f" dir={rule.direction}" if rule.direction != ANY else "")
            + f" times={rule.times}"
            for rule in self.rules
        )

    def to_dicts(self) -> list:
        return [rule.to_dict() for rule in self.rules]

    def injector(self, channel) -> "FaultInjector":
        """A fresh policy object (firing state) for one channel."""
        return FaultInjector(self, channel)

    # -- construction ------------------------------------------------------------

    @classmethod
    def parse(cls, text: str) -> "FaultPlan":
        """Parse the rule DSL (or an inline JSON list of rule dicts).

        DSL: rules separated by ``;``, each ``kind key=value ...``, e.g.
        ``"drop site=site1 round=1 dir=up; crash site=site1 rounds=1-2 times=4"``.
        Keys: ``site``, ``round``/``rounds`` (single, or ``low-high``
        range), ``dir``/``direction``, ``times``, ``delay``/``delay_s``.
        """
        text = text.strip()
        if not text:
            raise FaultSpecError("empty fault spec")
        if text[0] in "[{":
            try:
                payload = json.loads(text)
            except json.JSONDecodeError as error:
                raise FaultSpecError(f"invalid fault JSON: {error}") from None
            return cls._from_json(payload, description=text)
        rules = []
        for chunk in text.split(";"):
            chunk = chunk.strip()
            if not chunk:
                continue
            tokens = chunk.replace(",", " ").split()
            kind, options = tokens[0], tokens[1:]
            kwargs: dict = {}
            for token in options:
                if "=" not in token:
                    raise FaultSpecError(
                        f"fault option {token!r} is not key=value (in {chunk!r})"
                    )
                key, value = token.split("=", 1)
                try:
                    if key == "site":
                        kwargs["site"] = value
                    elif key in ("round", "rounds"):
                        kwargs["rounds"] = _parse_rounds(value)
                    elif key in ("dir", "direction"):
                        kwargs["direction"] = value
                    elif key == "times":
                        kwargs["times"] = int(value)
                    elif key in ("delay", "delay_s"):
                        kwargs["delay_s"] = float(value)
                    else:
                        raise FaultSpecError(f"unknown fault option {key!r}")
                except ValueError:
                    raise FaultSpecError(
                        f"cannot parse fault option {token!r}"
                    ) from None
            rules.append(FaultRule(kind, **kwargs))
        if not rules:
            raise FaultSpecError(f"fault spec {text!r} contains no rules")
        return cls(rules, description=text)

    @classmethod
    def _from_json(cls, payload, description: str = "") -> "FaultPlan":
        if isinstance(payload, dict):
            payload = payload.get("rules", payload)
        if not isinstance(payload, list):
            raise FaultSpecError(
                f"fault JSON must be a list of rules (or {{'rules': [...]}}), "
                f"got {type(payload).__name__}"
            )
        return cls([FaultRule.from_dict(entry) for entry in payload], description)

    @classmethod
    def load(cls, path: str) -> "FaultPlan":
        """Load a JSON rule list (``[{...}]`` or ``{"rules": [...]}``)."""
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, json.JSONDecodeError) as error:
            raise FaultSpecError(f"cannot load fault plan {path!r}: {error}") from None
        return cls._from_json(payload, description=f"file:{path}")

    @classmethod
    def from_any(cls, spec: str) -> "FaultPlan":
        """A JSON file path if one exists at ``spec``, else :meth:`parse`."""
        if os.path.isfile(spec):
            return cls.load(spec)
        return cls.parse(spec)

    @classmethod
    def scatter(
        cls,
        site_ids: Sequence[str],
        seed: int,
        rounds: int = 8,
        drop: float = 0.0,
        delay: float = 0.0,
        duplicate: float = 0.0,
        corrupt: float = 0.0,
    ) -> "FaultPlan":
        """A seeded random schedule: per (site, round, direction) each
        message-fault kind fires independently with the given rate.

        The expansion is deterministic in ``seed`` and the iteration
        order of ``site_ids``, so two runs (or two executors) given the
        same arguments face the identical schedule.
        """
        rng = random.Random(seed)
        rules = []
        for site_id in site_ids:
            for round_index in range(rounds):
                for direction in (DOWN, UP):
                    for kind, rate in (
                        (DROP, drop),
                        (DELAY, delay),
                        (DUPLICATE, duplicate),
                        (CORRUPT, corrupt),
                    ):
                        if rate and rng.random() < rate:
                            rules.append(
                                FaultRule(
                                    kind,
                                    site=site_id,
                                    rounds=(round_index,),
                                    direction=direction,
                                )
                            )
        return cls(
            rules,
            description=(
                f"scatter(seed={seed}, rounds={rounds}, drop={drop}, "
                f"delay={delay}, duplicate={duplicate}, corrupt={corrupt})"
            ),
        )

    @classmethod
    def stragglers(
        cls,
        site_ids: Sequence[str],
        seed: int,
        delay_s: float = 0.5,
        rounds: Sequence[int] = (1,),
        count: int = 1,
    ) -> "FaultPlan":
        """A seeded straggler schedule: ``count`` sites picked by ``seed``
        each straggle (real compute delay of ``delay_s``) once per listed
        round. Deterministic in ``seed`` and the order of ``site_ids``.
        """
        if count < 1 or count > len(site_ids):
            raise FaultSpecError(
                f"straggler count must be in 1..{len(site_ids)}, got {count}"
            )
        rng = random.Random(seed)
        chosen = rng.sample(list(site_ids), count)
        rules = [
            FaultRule(
                STRAGGLE,
                site=site_id,
                rounds=tuple(rounds),
                times=len(tuple(rounds)),
                delay_s=delay_s,
            )
            for site_id in chosen
        ]
        return cls(
            rules,
            description=(
                f"stragglers(seed={seed}, count={count}, delay_s={delay_s}, "
                f"rounds={','.join(map(str, rounds))})"
            ),
        )


def corrupt_payload(payload: bytes) -> bytes:
    """Flip the payload's first byte (the codec magic).

    Decoding a corrupted payload must fail *loudly* — a SerializationError
    the retry layer can act on — never yield silently wrong data.
    """
    return bytes([payload[0] ^ 0xFF]) + payload[1:]


class FaultInjector:
    """One channel's fault policy: a :class:`FaultPlan` plus its firing state.

    All firing state (per-rule counts, the current attempt's crash flag,
    the fired :class:`FaultEvent` log) is per-channel — sites fail
    independently and deterministically regardless of which engine runs
    their legs, in what order legs complete, or which transport moves
    the bytes (see :mod:`repro.net.channel` for the policy contract).
    """

    def __init__(self, plan: FaultPlan, channel):
        self.plan = plan
        self._channel = channel
        self._fired = [0] * len(plan.rules)
        self._doomed = False
        self._attempt_round = 0
        self.events: list = []

    def _consume(
        self, kinds, round_index: int, direction: str, payload=None
    ) -> Optional[FaultRule]:
        """First unspent matching rule, its firing count consumed."""
        site_id = self._channel.site_id
        for index, rule in enumerate(self.plan.rules):
            if rule.kind not in kinds:
                continue
            if rule.kind == CORRUPT and payload is None:
                continue  # header-only messages have nothing to corrupt
            if not rule.matches(site_id, round_index, direction):
                continue
            if rule.times and self._fired[index] >= rule.times:
                continue
            self._fired[index] += 1
            return rule
        return None

    def _record(
        self,
        kind: str,
        round_index: int,
        direction: str,
        size_bytes: int = 0,
        delay_s: float = 0.0,
    ) -> None:
        channel = self._channel
        site_id, metrics = channel.site_id, channel.metrics
        self.events.append(FaultEvent(kind, site_id, round_index, direction))
        metrics.counter(
            "net.fault.injected", kind=kind, site=site_id, direction=direction
        ).inc()
        if size_bytes:
            metrics.counter("net.fault.bytes", kind=kind, site=site_id).inc(size_bytes)
        if delay_s:
            metrics.gauge("net.fault.delay_s", site=site_id).add(delay_s)
        with channel.tracer.span(
            "net.fault",
            kind="fault",
            fault=kind,
            site=site_id,
            round=round_index,
            direction=direction,
        ):
            pass

    # -- per attempt -------------------------------------------------------------

    def begin_attempt(self, round_index: int) -> None:
        """Consult crash rules for one leg attempt; doom it if one fires."""
        self._doomed = self._consume((CRASH,), round_index, ANY) is not None
        self._attempt_round = round_index
        if self._doomed:
            self._record(CRASH, round_index, ANY)

    def next_straggle(self, round_index: int) -> float:
        """Real compute delay (seconds) this leg attempt should suffer.

        Consumes one firing of the first unspent ``straggle`` rule, so a
        speculative backup attempt (or a retry) runs at full speed once
        the rule's ``times`` budget is spent.
        """
        rule = self._consume((STRAGGLE,), round_index, ANY)
        if rule is None:
            return 0.0
        self._record(STRAGGLE, round_index, ANY, delay_s=rule.delay_s)
        return rule.delay_s

    def next_state_loss(self, round_index: int) -> bool:
        """Whether the site forgets its kept answers before this leg
        attempt; consumes one firing of the first unspent ``lose_state``
        rule."""
        if self._consume((LOSE_STATE,), round_index, ANY) is None:
            return False
        self._record(LOSE_STATE, round_index, ANY)
        return True

    def require_up(self) -> None:
        """Raise if the site is down for the whole of this attempt."""
        if self._doomed:
            raise SiteUnavailableError(
                f"site {self._channel.site_id!r} is down "
                f"(injected crash, round {self._attempt_round})"
            )

    # -- per message -------------------------------------------------------------

    def judge(self, message: Message, direction: str) -> tuple:
        """``(message to carry, DELIVER | LOST | LATE)`` for one message."""
        self.require_up()
        round_index = message.round_index
        rule = self._consume(
            _MESSAGE_KINDS, round_index, direction, payload=message.payload
        )
        if rule is None:
            return message, DELIVER
        if rule.kind == DROP:
            # Bytes left the sender's NIC; the message is lost in flight.
            self._record(DROP, round_index, direction, size_bytes=message.size_bytes)
            return message, LOST
        if rule.kind == CORRUPT:
            self._record(CORRUPT, round_index, direction)
            corrupted = corrupt_payload(message.payload)
            return dataclasses.replace(message, payload=corrupted), DELIVER
        if rule.kind == DUPLICATE:
            # The extra copy costs wire bytes (net.fault.bytes, so the
            # stats/network cross-check stays exact) and the receiver drops
            # it unseen, exactly as a sequence-numbered transport would.
            self._record(
                DUPLICATE, round_index, direction, size_bytes=message.size_bytes
            )
            channel = self._channel
            channel.metrics.counter(
                "net.fault.deduplicated", site=channel.site_id
            ).inc()
            return message, DELIVER
        # DELAY: delivered, but not before one receive attempt fails.
        self._record(DELAY, round_index, direction, delay_s=rule.delay_s)
        return message, LATE
