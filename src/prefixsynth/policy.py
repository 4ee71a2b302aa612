"""Decision layer for the two-phase synthesis loop.

Phase one edits the backbone with regroup calls; phase two refines the
completed graph with level/fanout/clone tools.  Policies are pluggable:
deterministic ones (greedy backbone search, critical-path refinement,
scripted replay) keep everything offline, while :class:`RemoteLlmPolicy`
speaks a chat-completions JSON protocol to an external model.  The
orchestrators validate every tool call before applying it, feed rejection
reasons back to the policy, and abort with the partial trace once a policy
misbehaves three times in a row.
"""
from __future__ import annotations

import json
import os
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Protocol, Sequence, Union

from .backbone import (
    Backbone,
    RegroupError,
    arrival_table,
    find_candidates,
    init_serial,
    regroup,
    to_timed_sexpr,
)
from .epr import CriticalPath, critical_path, render_epr
from .esat import RegroupTrace
from .graph import Node, PrefixGraph, parse_node_token
from .refine import (
    RefineAction,
    RefinementError,
    apply_action,
    fanout_opt,
    level_opt,
)
from .timing import ArrivalProfile, DelayModel, TimingReport, graph_arrivals

__all__ = [
    "Regroup",
    "Finish1",
    "LevelOpt",
    "FanoutOpt",
    "NodeClone",
    "Finish2",
    "ToolCall",
    "to_record",
    "from_record",
    "tool_schemas",
    "DecisionContext",
    "Policy",
    "PolicyError",
    "PolicyAbort",
    "build_phase1_prompt",
    "build_phase2_prompt",
    "candidates_text",
    "system_prompt",
    "Phase1Result",
    "Phase2Result",
    "run_phase1",
    "run_phase2",
    "GreedyBackbonePolicy",
    "CriticalPathRefinePolicy",
    "ScriptedPolicy",
    "RemoteEndpoint",
    "RemoteLlmPolicy",
    "RETRY_BUDGET",
]

RETRY_BUDGET = 3


# -- tool calls --------------------------------------------------------------


@dataclass(frozen=True)
class Regroup:
    a: Node
    b: Node


@dataclass(frozen=True)
class Finish1:
    pass


@dataclass(frozen=True)
class LevelOpt:
    target: Node


@dataclass(frozen=True)
class FanoutOpt:
    target: Node
    consumer: Node


@dataclass(frozen=True)
class NodeClone:
    target: Node


@dataclass(frozen=True)
class Finish2:
    pass


ToolCall = Union[Regroup, Finish1, LevelOpt, FanoutOpt, NodeClone, Finish2]

PHASE1_TOOLS = (Regroup, Finish1)
PHASE2_TOOLS = (LevelOpt, FanoutOpt, NodeClone, Finish2)


class PolicyError(Exception):
    """A policy failed to produce a usable decision."""


class PolicyAbort(Exception):
    """The orchestrator gave up on a policy; carries the partial result."""

    def __init__(self, message: str, partial: object) -> None:
        super().__init__(message)
        self.partial = partial


def to_record(call: ToolCall) -> dict:
    """Serialize a tool call to its JSON wire form."""
    if isinstance(call, Regroup):
        return {"tool": "regroup", "args": {"a": call.a.token(), "b": call.b.token()}}
    if isinstance(call, Finish1):
        return {"tool": "finish1", "args": {}}
    if isinstance(call, LevelOpt):
        return {"tool": "level_opt", "args": {"target": call.target.token()}}
    if isinstance(call, FanoutOpt):
        return {
            "tool": "fanout_opt",
            "args": {"target": call.target.token(), "consumer": call.consumer.token()},
        }
    if isinstance(call, NodeClone):
        return {"tool": "node_clone", "args": {"target": call.target.token()}}
    if isinstance(call, Finish2):
        return {"tool": "finish2", "args": {}}
    raise PolicyError(f"unknown tool call {call!r}")


def from_record(record: object) -> ToolCall:
    """Parse the JSON wire form back into a tool call."""
    if not isinstance(record, dict):
        raise PolicyError("tool call must be a JSON object")
    tool = record.get("tool")
    args = record.get("args", {})
    if not isinstance(args, dict):
        raise PolicyError("'args' must be an object")

    def node_arg(name: str) -> Node:
        value = args.get(name)
        if not isinstance(value, str):
            raise PolicyError(f"missing node argument {name!r}")
        try:
            return parse_node_token(value)
        except Exception as exc:
            raise PolicyError(f"bad node token for {name!r}: {value!r}") from exc

    if tool == "regroup":
        return Regroup(node_arg("a"), node_arg("b"))
    if tool == "finish1":
        return Finish1()
    if tool == "level_opt":
        return LevelOpt(node_arg("target"))
    if tool == "fanout_opt":
        return FanoutOpt(node_arg("target"), node_arg("consumer"))
    if tool == "node_clone":
        return NodeClone(node_arg("target"))
    if tool == "finish2":
        return Finish2()
    raise PolicyError(f"unknown tool {tool!r}")


def tool_schemas(phase: int) -> list[dict]:
    """JSON schemas for the tools legal in a phase."""
    node = {"type": "string", "pattern": r"\(\d+,\d+\)(#\d+)?"}
    if phase == 1:
        return [
            {
                "name": "regroup",
                "description": "Rotate the backbone at a candidate pair: "
                "group the two named nodes into a new node.",
                "parameters": {"a": node, "b": node},
            },
            {
                "name": "finish1",
                "description": "Accept the current backbone and end phase one.",
                "parameters": {},
            },
        ]
    if phase == 2:
        return [
            {
                "name": "level_opt",
                "description": "Re-split the target node to lower its level.",
                "parameters": {"target": node},
            },
            {
                "name": "fanout_opt",
                "description": "Re-split the consumer so it stops reading the "
                "target, lowering the target's fanout.",
                "parameters": {"target": node, "consumer": node},
            },
            {
                "name": "node_clone",
                "description": "Duplicate the target and move half of its "
                "consumers to the clone.",
                "parameters": {"target": node},
            },
            {
                "name": "finish2",
                "description": "Accept the current graph and end phase two.",
                "parameters": {},
            },
        ]
    raise ValueError(f"no such phase: {phase}")


# -- context and prompts ------------------------------------------------------


@dataclass(frozen=True)
class DecisionContext:
    """Everything a policy may look at when deciding the next call.

    The structured fields back the deterministic policies.  ``state_text``
    is what a language model sees: the timing-annotated s-expression of the
    backbone in phase 1, the EPR of the graph in phase 2.  It is rendered on
    first access, so a policy that never reads it never pays for it.
    """

    phase: int
    iteration: int
    max_iterations: int
    width: int
    profile: ArrivalProfile
    model: DelayModel
    target: float | None
    candidates: tuple[tuple[Node, Node], ...] = ()
    backbone: Backbone | None = None
    graph: PrefixGraph | None = None
    report: TimingReport | None = None
    critical: CriticalPath | None = None
    feedback: str | None = None

    @cached_property
    def state_text(self) -> str:
        if self.phase == 1:
            assert self.backbone is not None
            return to_timed_sexpr(self.backbone, self.profile, self.model)
        assert self.graph is not None
        return render_epr(self.graph)


class Policy(Protocol):
    def decide(self, ctx: DecisionContext) -> ToolCall: ...


def _target_text(target: float | None) -> str:
    return "none (minimize delay)" if target is None else f"{target:.4f}"


def candidates_text(candidates: Sequence[tuple[Node, Node]]) -> str:
    """The numbered candidate menu shown in prompts and tool feedback."""
    if not candidates:
        return "Applicable regroup candidates: none."
    lines = ["Applicable regroup candidates:"]
    for i, (a, b) in enumerate(candidates, 1):
        lines.append(f"  {i}. regroup {a.token()} {b.token()}")
    return "\n".join(lines)


def build_phase1_prompt(ctx: DecisionContext) -> str:
    """Deterministic phase-one prompt: annotated backbone + candidate menu."""
    lines = [
        f"Phase 1 of prefix-adder synthesis, {ctx.width}-bit operands.",
        f"Iteration {ctx.iteration} of {ctx.max_iterations}."
        f" Target delay: {_target_text(ctx.target)}.",
        "",
        "Current backbone as a timing-annotated s-expression:",
        ctx.state_text.rstrip("\n"),
        "",
        candidates_text(ctx.candidates),
    ]
    lines += [
        "",
        "Respond with exactly one JSON tool call, e.g. "
        '{"tool": "regroup", "args": {"a": "(3,2)", "b": "(1,1)"}} or '
        '{"tool": "finish1", "args": {}}.',
        "Available tools:",
        json.dumps(tool_schemas(1), indent=2),
    ]
    if ctx.feedback:
        lines += ["", f"Feedback on your last response: {ctx.feedback}"]
    return "\n".join(lines) + "\n"


def build_phase2_prompt(ctx: DecisionContext) -> str:
    """Deterministic phase-two prompt: metrics, EPR, critical path."""
    report = ctx.report
    assert report is not None and ctx.graph is not None and ctx.critical is not None
    slack_text = "n/a" if report.slack is None else f"{report.slack:.4f}"
    lines = [
        f"Phase 2 of prefix-adder synthesis, {ctx.width}-bit operands.",
        f"Iteration {ctx.iteration} of {ctx.max_iterations}."
        f" Target delay: {_target_text(ctx.target)}.",
        "",
        f"Metrics: delay={report.delay:.4f}, slack={slack_text}, "
        f"area={report.area}, max_level={ctx.graph.depth}, "
        f"max_fanout={ctx.graph.max_fanout()}.",
        "",
        "Current graph (EPR):",
        ctx.state_text.rstrip("\n"),
        "",
        "Critical path:",
        ctx.critical.render(),
        "",
        "Respond with exactly one JSON tool call, e.g. "
        '{"tool": "level_opt", "args": {"target": "(7,0)"}} or '
        '{"tool": "finish2", "args": {}}.',
        "Available tools:",
        json.dumps(tool_schemas(2), indent=2),
    ]
    if ctx.feedback:
        lines += ["", f"Feedback on your last response: {ctx.feedback}"]
    return "\n".join(lines) + "\n"


_ASSET_NAMES = {1: "phase1_system.txt", 2: "phase2_system.txt"}


def system_prompt(phase: int) -> str:
    """The versioned system-prompt asset for a phase."""
    from importlib import resources

    name = _ASSET_NAMES.get(phase)
    if name is None:
        raise ValueError(f"no such phase: {phase}")
    return (resources.files("prefixsynth") / "assets" / name).read_text()


# -- orchestrators ------------------------------------------------------------


@dataclass(frozen=True)
class Phase1Result:
    backbone: Backbone
    trace: RegroupTrace
    iterations: int
    finished: bool
    notes: tuple[str, ...] = ()


@dataclass(frozen=True)
class Phase2Result:
    graph: PrefixGraph
    actions: tuple[RefineAction, ...]
    iterations: int
    finished: bool
    notes: tuple[str, ...] = ()


def run_phase1(
    width: int,
    profile: ArrivalProfile,
    target: float | None,
    max_iterations: int,
    policy: Policy,
    model: DelayModel = DelayModel(),
) -> Phase1Result:
    """Drive the backbone loop: at most ``max_iterations`` policy decisions,
    each either a validated regroup or a finishing call.

    Three consecutive rejected decisions abort with the partial trace.
    """
    if width < 2:
        raise ValueError("width must be >= 2")
    if max_iterations < 1:
        raise ValueError("max_iterations must be >= 1")
    bb = init_serial(width)
    steps: list[tuple[Node, Node]] = []
    notes: list[str] = []
    feedback: str | None = None
    strikes = 0
    finished = False
    k = 0
    while k < max_iterations:
        k += 1
        candidates = tuple(find_candidates(bb))
        ctx = DecisionContext(
            phase=1,
            iteration=k,
            max_iterations=max_iterations,
            width=width,
            profile=profile,
            model=model,
            target=target,
            candidates=candidates,
            backbone=bb,
            feedback=feedback,
        )
        feedback = None
        try:
            call = policy.decide(ctx)
        except PolicyError as exc:
            raise PolicyAbort(
                f"policy failed at iteration {k}: {exc}",
                Phase1Result(bb, RegroupTrace(width, tuple(steps)), k, False),
            ) from exc
        if isinstance(call, Finish1):
            finished = True
            break
        if not isinstance(call, Regroup):
            feedback = f"{type(call).__name__} is not legal in phase 1"
        elif (call.a, call.b) not in candidates:
            feedback = (
                f"regroup {call.a.token()} {call.b.token()} is not an"
                " applicable candidate"
            )
        else:
            try:
                bb = regroup(bb, call.a, call.b)
            except RegroupError as exc:  # pragma: no cover - candidates are valid
                feedback = str(exc)
            else:
                steps.append((call.a, call.b))
                strikes = 0
                continue
        strikes += 1
        notes.append(f"iteration {k}: rejected ({feedback})")
        if strikes >= RETRY_BUDGET:
            raise PolicyAbort(
                f"{RETRY_BUDGET} consecutive rejected decisions: {feedback}",
                Phase1Result(bb, RegroupTrace(width, tuple(steps)), k, False, tuple(notes)),
            )
    return Phase1Result(
        bb, RegroupTrace(width, tuple(steps)), k, finished, tuple(notes)
    )


def _phase2_call_to_action(call: ToolCall) -> RefineAction:
    if isinstance(call, LevelOpt):
        return RefineAction("level_opt", call.target)
    if isinstance(call, FanoutOpt):
        return RefineAction("fanout_opt", call.target, call.consumer)
    if isinstance(call, NodeClone):
        return RefineAction("node_clone", call.target)
    raise PolicyError(f"not a phase-2 edit: {call!r}")


def run_phase2(
    graph: PrefixGraph,
    target: float | None,
    max_iterations: int,
    policy: Policy,
    profile: ArrivalProfile,
    model: DelayModel = DelayModel(),
) -> Phase2Result:
    """Drive the refinement loop over a complete graph.

    Each iteration regenerates the timing report, EPR, and critical path,
    then applies one validated tool call; ends on finish2 or the iteration
    bound.
    """
    if not graph.is_complete:
        raise ValueError("phase 2 requires a complete graph")
    if max_iterations < 1:
        raise ValueError("max_iterations must be >= 1")
    actions: list[RefineAction] = []
    notes: list[str] = []
    feedback: str | None = None
    strikes = 0
    finished = False
    k = 0
    while k < max_iterations:
        k += 1
        report = graph_arrivals(graph, profile, model, target)
        critical = critical_path(
            graph, report.arrivals, report.critical_start, report.critical_end
        )
        ctx = DecisionContext(
            phase=2,
            iteration=k,
            max_iterations=max_iterations,
            width=graph.width,
            profile=profile,
            model=model,
            target=target,
            graph=graph,
            report=report,
            critical=critical,
            feedback=feedback,
        )
        feedback = None
        try:
            call = policy.decide(ctx)
        except PolicyError as exc:
            raise PolicyAbort(
                f"policy failed at iteration {k}: {exc}",
                Phase2Result(graph, tuple(actions), k, False, tuple(notes)),
            ) from exc
        if isinstance(call, Finish2):
            finished = True
            break
        if not isinstance(call, PHASE2_TOOLS):
            feedback = f"{type(call).__name__} is not legal in phase 2"
        else:
            action = _phase2_call_to_action(call)
            try:
                graph = apply_action(graph, action)
            except RefinementError as exc:
                feedback = str(exc)
            else:
                actions.append(action)
                strikes = 0
                continue
        strikes += 1
        notes.append(f"iteration {k}: rejected ({feedback})")
        if strikes >= RETRY_BUDGET:
            raise PolicyAbort(
                f"{RETRY_BUDGET} consecutive rejected decisions: {feedback}",
                Phase2Result(graph, tuple(actions), k, False, tuple(notes)),
            )
    return Phase2Result(graph, tuple(actions), k, finished, tuple(notes))


# -- deterministic policies ----------------------------------------------------


class GreedyBackbonePolicy:
    """Phase-one stand-in: take the candidate that minimizes the annotated
    root cost; finish when at target or no candidate strictly improves.

    A regroup at ridge node ``(i, 0)`` changes only the arrival of the node
    it creates, of ``(i, 0)`` and of the ridge nodes above, so each candidate
    is scored from one :func:`~prefixsynth.backbone.arrival_table` of the
    current backbone, with the same ``max(up, lp) + step`` float operations
    that :func:`~prefixsynth.timing.backbone_cost` applies to the regrouped
    tree.
    """

    def decide(self, ctx: DecisionContext) -> ToolCall:
        bb = ctx.backbone
        if bb is None:
            raise PolicyError("greedy backbone policy needs structured state")
        step = ctx.model.step
        parents = bb.parent_map
        cost = arrival_table(bb, ctx.profile, ctx.model)
        current = cost[bb.root]
        if ctx.target is not None and current <= ctx.target:
            return Finish1()
        # Arrivals down the ridge, root first and ending at the leaf (0, 0),
        # and of each ridge node's upper parent.
        position: dict[int, int] = {}
        ridge_cost: list[float] = []
        up_cost: list[float] = []
        node = bb.root
        while node.span > 1:
            position[node.msb] = len(ridge_cost)
            ridge_cost.append(cost[node])
            up, node = parents[node]
            up_cost.append(cost[up])
        ridge_cost.append(cost[node])
        best: tuple[float, int] | None = None
        best_call: ToolCall = Finish1()
        for i, (a, b) in enumerate(ctx.candidates):
            # The site (a.msb, 0) is ridge node j and a its upper parent; b
            # is the upper parent of ridge node j + 1, which the regroup
            # removes.  The created (a.msb, b.lsb) reads a and b, and the
            # site reads it and ridge node j + 2.
            j = position[a.msb]
            created = max(up_cost[j], up_cost[j + 1]) + step
            x = max(created, ridge_cost[j + 2]) + step
            while j > 0 and x != ridge_cost[j]:
                j -= 1
                x = max(up_cost[j], x) + step
            score = x if j == 0 else current
            if best is None or (score, i) < best:
                best = (score, i)
                best_call = Regroup(a, b)
        if best is None or best[0] >= current:
            return Finish1()
        return best_call


class CriticalPathRefinePolicy:
    """Phase-two stand-in.

    Prefers level_opt on the critical node with the largest gap between its
    actual level and the theoretical minimum for its span; falls back to
    fanout_opt, then node_clone, on the highest-fanout critical driver;
    finishes when slack is met or nothing applies.
    """

    def decide(self, ctx: DecisionContext) -> ToolCall:
        graph, report, critical = ctx.graph, ctx.report, ctx.critical
        if graph is None or report is None or critical is None:
            raise PolicyError("critical-path policy needs structured state")
        if report.slack is not None and report.slack >= 0:
            return Finish2()

        internal = [n for n in critical.nodes if not n.is_input]
        by_gap = sorted(
            internal,
            key=lambda n: (graph.level(n) - (n.span - 1).bit_length(), n),
            reverse=True,
        )
        for node in by_gap:
            if graph.level(node) <= (node.span - 1).bit_length():
                continue
            try:
                level_opt(graph, node)
            except RefinementError:
                continue
            return LevelOpt(node)

        drivers = sorted(
            (n for n in critical.nodes if graph.fanout(n) >= 2),
            key=lambda n: (graph.fanout(n), n),
            reverse=True,
        )
        for driver in drivers:
            for consumer in graph.consumers(driver):
                try:
                    fanout_opt(graph, driver, consumer)
                except RefinementError:
                    continue
                return FanoutOpt(driver, consumer)
        for driver in drivers:
            if not driver.is_input:
                return NodeClone(driver)
        return Finish2()


class ScriptedPolicy:
    """Replays a fixed decision sequence, then finishes the current phase.

    A rejected call is re-issued verbatim (the script has no way to adapt),
    so an illegal scripted call exhausts the orchestrator's strike budget
    instead of being skipped.
    """

    def __init__(self, calls: Sequence[ToolCall]) -> None:
        self._calls = list(calls)
        self._next = 0
        self._last: ToolCall | None = None

    @classmethod
    def from_trace(cls, trace: RegroupTrace) -> ScriptedPolicy:
        return cls([Regroup(a, b) for a, b in trace.steps] + [Finish1()])

    @classmethod
    def from_actions(cls, actions: Sequence[RefineAction]) -> ScriptedPolicy:
        calls: list[ToolCall] = []
        for act in actions:
            if act.tool == "level_opt":
                calls.append(LevelOpt(act.target))
            elif act.tool == "fanout_opt":
                assert act.consumer is not None
                calls.append(FanoutOpt(act.target, act.consumer))
            elif act.tool == "node_clone":
                calls.append(NodeClone(act.target))
            else:
                raise PolicyError(f"unknown tool {act.tool!r}")
        calls.append(Finish2())
        return cls(calls)

    def decide(self, ctx: DecisionContext) -> ToolCall:
        if ctx.feedback is not None and self._last is not None:
            return self._last
        if self._next >= len(self._calls):
            return Finish1() if ctx.phase == 1 else Finish2()
        call = self._calls[self._next]
        self._next += 1
        self._last = call
        return call


# -- remote policy --------------------------------------------------------------


@dataclass(frozen=True)
class RemoteEndpoint:
    """Where and how to reach a chat-completions style endpoint."""

    base_url: str
    api_key: str = ""
    model: str = "default"
    timeout: float = 60.0
    temperature: float = 0.0

    @classmethod
    def from_env(cls) -> RemoteEndpoint:
        base = os.environ.get("PREFIXSYNTH_API_BASE")
        if not base:
            raise PolicyError("PREFIXSYNTH_API_BASE is not set")
        return cls(
            base_url=base,
            api_key=os.environ.get("PREFIXSYNTH_API_KEY", ""),
            model=os.environ.get("PREFIXSYNTH_MODEL", "default"),
        )

    @classmethod
    def from_config(cls, path: str) -> RemoteEndpoint:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        try:
            base = data["base_url"]
        except KeyError as exc:
            raise PolicyError(f"{path}: missing base_url") from exc
        return cls(
            base_url=base,
            api_key=data.get("api_key", ""),
            model=data.get("model", "default"),
            timeout=float(data.get("timeout", 60.0)),
            temperature=float(data.get("temperature", 0.0)),
        )


def _strip_think(text: str) -> str:
    while True:
        start = text.find("<think>")
        if start < 0:
            return text
        end = text.find("</think>", start)
        if end < 0:
            return text[:start]
        text = text[:start] + text[end + len("</think>") :]


def _first_json_object(text: str) -> dict:
    decoder = json.JSONDecoder()
    for i, ch in enumerate(text):
        if ch != "{":
            continue
        try:
            obj, _ = decoder.raw_decode(text, i)
        except json.JSONDecodeError:
            continue
        if isinstance(obj, dict):
            return obj
    raise PolicyError("no JSON object in response")


Transport = Callable[[list[dict]], str]


class RemoteLlmPolicy:
    """Asks a remote chat model for each decision.

    Messages are system prompt + built user prompt; the reply must contain a
    JSON tool call.  Malformed or phase-illegal replies get a corrective
    re-prompt, three attempts total; transport failures surface as
    :class:`PolicyError` so the orchestrator can abort with its partial
    trace.
    """

    def __init__(self, endpoint: RemoteEndpoint, transport: Transport | None = None) -> None:
        self.endpoint = endpoint
        self._transport = transport or self._http_transport

    def _http_transport(self, messages: list[dict]) -> str:
        import requests

        url = self.endpoint.base_url.rstrip("/") + "/chat/completions"
        headers = {"Content-Type": "application/json"}
        if self.endpoint.api_key:
            headers["Authorization"] = f"Bearer {self.endpoint.api_key}"
        try:
            resp = requests.post(
                url,
                headers=headers,
                json={
                    "model": self.endpoint.model,
                    "messages": messages,
                    "temperature": self.endpoint.temperature,
                },
                timeout=self.endpoint.timeout,
            )
            resp.raise_for_status()
            payload = resp.json()
        except requests.RequestException as exc:
            raise PolicyError(f"endpoint failure: {exc}") from exc
        try:
            return payload["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError) as exc:
            raise PolicyError(f"malformed completion payload: {payload!r}") from exc

    def decide(self, ctx: DecisionContext) -> ToolCall:
        build = build_phase1_prompt if ctx.phase == 1 else build_phase2_prompt
        legal = PHASE1_TOOLS if ctx.phase == 1 else PHASE2_TOOLS
        messages = [
            {"role": "system", "content": system_prompt(ctx.phase)},
            {"role": "user", "content": build(ctx)},
        ]
        last_error = "no attempts made"
        for _ in range(RETRY_BUDGET):
            content = self._transport(messages)
            try:
                call = from_record(_first_json_object(_strip_think(content)))
                if not isinstance(call, legal):
                    raise PolicyError(
                        f"{type(call).__name__} is not legal in phase {ctx.phase}"
                    )
                return call
            except PolicyError as exc:
                last_error = str(exc)
                messages = messages + [
                    {"role": "assistant", "content": content},
                    {
                        "role": "user",
                        "content": f"That response was rejected: {last_error}. "
                        "Reply with exactly one valid JSON tool call.",
                    },
                ]
        raise PolicyError(f"no valid tool call after {RETRY_BUDGET} attempts: {last_error}")
