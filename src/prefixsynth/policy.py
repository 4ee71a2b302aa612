"""Decision layer for the two-phase synthesis loop.

Phase one edits the backbone with regroup calls; phase two refines the
completed graph with level/fanout/clone tools.  Policies are pluggable:
deterministic ones (scripted replay, critical-path refinement) keep
everything offline, while :class:`RemoteLlmPolicy` speaks a
chat-completions JSON protocol to an external model.  The offline flow
replays the regroup trace of the e-graph's min-cost backbone through
:class:`ScriptedPolicy`, so every phase-1 run shares one trace form.  The
orchestrators validate every tool call before applying it, feed rejection
reasons back to the policy, and abort with the partial trace once a policy
misbehaves three times in a row.
"""
from __future__ import annotations

import json
import os
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, NamedTuple, Protocol, Sequence

from . import refine
from .backbone import (
    Backbone,
    RegroupError,
    find_candidates,
    init_serial,
    regroup,
    to_timed_sexpr,
)
from .epr import CriticalPath, critical_path, render_epr
from .graph import GraphError, Node, PrefixGraph, parse_node_token
from .refine import RefinementError, fanout_opt, level_opt
from .timing import ArrivalProfile, DelayModel, TimingReport, graph_arrivals

__all__ = [
    "Action",
    "parse_script",
    "tool_schemas",
    "RegroupTrace",
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
    "CriticalPathRefinePolicy",
    "ScriptedPolicy",
    "RemoteEndpoint",
    "RemoteLlmPolicy",
    "RETRY_BUDGET",
]

RETRY_BUDGET = 3


# -- actions -----------------------------------------------------------------


class PolicyError(Exception):
    """A policy failed to produce a usable decision."""


class PolicyAbort(Exception):
    """The orchestrator gave up on a policy; carries the partial result."""

    def __init__(self, message: str, partial: object) -> None:
        super().__init__(message)
        self.partial = partial


class _Tool(NamedTuple):
    phase: int
    operands: tuple[str, ...]
    description: str


_TOOLS = {
    "regroup": _Tool(1, ("a", "b"), "Rotate the backbone at a candidate pair: "
                     "group the two named nodes into a new node."),
    "finish1": _Tool(1, (), "Accept the current backbone and end phase one."),
    "level_opt": _Tool(2, ("target",), "Re-split the target node to lower its level."),
    "fanout_opt": _Tool(2, ("target", "consumer"), "Re-split the consumer so it "
                        "stops reading the target, lowering the target's fanout."),
    "node_clone": _Tool(2, ("target",), "Duplicate the target and move half of its "
                        "consumers to the clone."),
    "finish2": _Tool(2, (), "Accept the current graph and end phase two."),
}


@dataclass(frozen=True)
class Action:
    """One tool call: a tool name and its node operands, in the order the
    tool table names them.

    Two codecs: :meth:`to_json`/:meth:`from_json` for the ``{"tool",
    "args"}`` wire form, :meth:`to_line`/:meth:`from_line` for the script and
    ``trace.txt`` line (``regroup a.msb a.lsb b.msb b.lsb``, ``level_opt
    (3,0)``, ``fanout_opt T C``, ``node_clone T``, ``finish1``, ``finish2``).
    """

    tool: str
    args: tuple[Node, ...] = ()

    @property
    def phase(self) -> int:
        """The phase the tool belongs to; 0 for an unknown tool."""
        return _TOOLS[self.tool].phase if self.tool in _TOOLS else 0

    def to_json(self) -> dict:
        names = _TOOLS[self.tool].operands
        args = {name: node.token() for name, node in zip(names, self.args)}
        return {"tool": self.tool, "args": args}

    @classmethod
    def from_json(cls, record: object) -> Action:
        if not isinstance(record, dict):
            raise PolicyError("tool call must be a JSON object")
        args = record.get("args", {})
        if not isinstance(args, dict):
            raise PolicyError("'args' must be an object")
        tool = record.get("tool")
        if tool not in _TOOLS:
            raise PolicyError(f"unknown tool {tool!r}")
        nodes = []
        for name in _TOOLS[tool].operands:
            value = args.get(name)
            if not isinstance(value, str):
                raise PolicyError(f"missing node argument {name!r}")
            try:
                nodes.append(parse_node_token(value))
            except GraphError as exc:
                raise PolicyError(f"bad node token for {name!r}: {value!r}") from exc
        return cls(tool, tuple(nodes))

    def to_line(self) -> str:
        if self.tool == "regroup":
            a, b = self.args
            return f"regroup {a.msb} {a.lsb} {b.msb} {b.lsb}"
        return " ".join([self.tool, *(node.token() for node in self.args)])

    @classmethod
    def from_line(cls, line: str) -> Action:
        tool, *words = line.split()
        if tool not in _TOOLS:
            raise PolicyError(f"unknown tool {tool!r}")
        operands = _TOOLS[tool].operands
        if tool == "regroup":
            try:
                msb_a, lsb_a, msb_b, lsb_b = map(int, words)
            except ValueError as exc:
                raise PolicyError("expected 'regroup a.msb a.lsb b.msb b.lsb'") from exc
            words = [f"({msb_a},{lsb_a})", f"({msb_b},{lsb_b})"]
        elif len(words) != len(operands):
            raise PolicyError(f"{tool} takes {len(operands)} operand(s), got {len(words)}")
        return cls.from_json({"tool": tool, "args": dict(zip(operands, words))})


def parse_script(text: str) -> tuple[tuple[Action, ...], tuple[Action, ...]]:
    """Read a script (or a ``trace.txt``) into its phase-1 and phase-2 actions.

    One :meth:`Action.to_line` per line; blank lines and ``#`` comments are
    skipped and a bare ``finish`` reads as ``finish2``.  ``finish1`` or the
    first phase-2 line ends phase 1; ``finish2``, or any finish line once
    phase 2 has begun, ends the script.  Errors start with ``line N:``,
    counted over the whole text.
    """
    phases: tuple[list[Action], list[Action]] = ([], [])
    current = 1
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            action = Action.from_line("finish2" if line == "finish" else line)
        except PolicyError as exc:
            raise PolicyError(f"line {lineno}: {exc}") from exc
        if action.tool == "finish2" or (action.tool == "finish1" and current == 2):
            break
        if action.tool == "finish1":
            current = 2
            continue
        if action.phase < current:
            raise PolicyError(f"line {lineno}: {action.tool} after phase 2 began")
        current = action.phase
        phases[current - 1].append(action)
    return tuple(phases[0]), tuple(phases[1])


def tool_schemas(phase: int) -> list[dict]:
    """JSON schemas for the tools legal in a phase."""
    if phase not in (1, 2):
        raise ValueError(f"no such phase: {phase}")
    node = {"type": "string", "pattern": r"\(\d+,\d+\)(#\d+)?"}
    return [
        {"name": name, "description": tool.description,
         "parameters": {operand: node for operand in tool.operands}}
        for name, tool in _TOOLS.items() if tool.phase == phase
    ]


@dataclass(frozen=True)
class RegroupTrace:
    """The regroup actions that rebuild a backbone from the serial chain."""

    width: int
    steps: tuple[Action, ...]

    def replay(self) -> Backbone:
        bb = init_serial(self.width)
        for step in self.steps:
            bb = regroup(bb, *step.args)
        return bb


# -- context and prompts ------------------------------------------------------


@dataclass(frozen=True)
class DecisionContext:
    """Everything a policy may look at when deciding the next call.

    The state is the backbone in phase 1 and the graph in phase 2; every
    view of it is derived on first access, so a policy pays only for what it
    reads.  ``candidates`` is the phase-1 regroup menu; ``report`` times the
    phase-2 graph against the target, and ``critical`` renders its critical
    chain.  ``state_text`` is what a language model sees: the
    timing-annotated s-expression of the backbone in phase 1, the EPR of the
    graph in phase 2.
    """

    phase: int
    iteration: int
    max_iterations: int
    profile: ArrivalProfile
    model: DelayModel
    target: float | None
    backbone: Backbone | None = None
    graph: PrefixGraph | None = None
    feedback: str | None = None

    @property
    def width(self) -> int:
        return (self.backbone if self.phase == 1 else self.graph).width

    @cached_property
    def candidates(self) -> tuple[tuple[Node, Node], ...]:
        assert self.backbone is not None
        return tuple(find_candidates(self.backbone))

    @cached_property
    def report(self) -> TimingReport:
        assert self.graph is not None
        return graph_arrivals(self.graph, self.profile, self.model, self.target)

    @cached_property
    def critical(self) -> CriticalPath:
        return critical_path(self.graph, self.report.critical)

    @cached_property
    def state_text(self) -> str:
        if self.phase == 1:
            assert self.backbone is not None
            return to_timed_sexpr(self.backbone, self.profile, self.model)
        assert self.graph is not None
        return render_epr(self.graph)


class Policy(Protocol):
    def decide(self, ctx: DecisionContext) -> Action: ...


def candidates_text(candidates: Sequence[tuple[Node, Node]]) -> str:
    """The numbered candidate menu shown in prompts and tool feedback."""
    if not candidates:
        return "Applicable regroup candidates: none."
    lines = ["Applicable regroup candidates:"]
    for i, (a, b) in enumerate(candidates, 1):
        lines.append(f"  {i}. regroup {a.token()} {b.token()}")
    return "\n".join(lines)


def _prompt(ctx: DecisionContext, body: list[str], example: Action) -> str:
    target = "none (minimize delay)" if ctx.target is None else f"{ctx.target:.4f}"
    lines = [
        f"Phase {ctx.phase} of prefix-adder synthesis, {ctx.width}-bit operands.",
        f"Iteration {ctx.iteration} of {ctx.max_iterations}."
        f" Target delay: {target}.",
        "",
        *body,
        "",
        "Respond with exactly one JSON tool call, e.g. "
        f"{json.dumps(example.to_json())} or "
        f"{json.dumps(Action(f'finish{ctx.phase}').to_json())}.",
        "Available tools:",
        json.dumps(tool_schemas(ctx.phase), indent=2),
    ]
    if ctx.feedback:
        lines += ["", f"Feedback on your last response: {ctx.feedback}"]
    return "\n".join(lines) + "\n"


def build_phase1_prompt(ctx: DecisionContext) -> str:
    """Deterministic phase-one prompt: annotated backbone + candidate menu."""
    body = [
        "Current backbone as a timing-annotated s-expression:",
        ctx.state_text.rstrip("\n"),
        "",
        candidates_text(ctx.candidates),
    ]
    return _prompt(ctx, body, Action("regroup", (Node(3, 2), Node(1, 1))))


def build_phase2_prompt(ctx: DecisionContext) -> str:
    """Deterministic phase-two prompt: metrics, EPR, critical path."""
    graph, report = ctx.graph, ctx.report
    slack_text = "n/a" if report.slack is None else f"{report.slack:.4f}"
    body = [
        f"Metrics: delay={report.delay:.4f}, slack={slack_text}, "
        f"area={graph.size}, max_level={graph.depth}, "
        f"max_fanout={graph.max_fanout()}.",
        "",
        "Current graph (EPR):",
        ctx.state_text.rstrip("\n"),
        "",
        "Critical path:",
        ctx.critical.render(),
    ]
    return _prompt(ctx, body, Action("level_opt", (Node(7, 0),)))


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
    actions: tuple[Action, ...]
    iterations: int
    finished: bool
    notes: tuple[str, ...] = ()


class _Phase(NamedTuple):
    """One phase for the shared loop: a context template whose phase names
    the legal tools, the context field that holds the state, the edit, the
    result."""

    base: DecisionContext
    field: str
    apply: Callable[[object, Action], object]
    result: Callable[[object, tuple[Action, ...], int, bool, tuple[str, ...]], object]


def _run(phase: _Phase, state: object, policy: Policy):
    """At most ``max_iterations`` decisions, each a validated action or the
    phase's finish.  A rejected action is fed back to the policy; three in a
    row, or a :class:`PolicyError`, abort with the partial result."""
    number = phase.base.phase
    if phase.base.max_iterations < 1:
        raise ValueError("max_iterations must be >= 1")
    applied: list[Action] = []
    notes: list[str] = []
    feedback: str | None = None
    strikes = 0
    k = 0
    while k < phase.base.max_iterations:
        k += 1
        ctx = replace(phase.base, iteration=k, feedback=feedback, **{phase.field: state})
        feedback = None
        try:
            action = policy.decide(ctx)
        except PolicyError as exc:
            raise PolicyAbort(
                f"policy failed at iteration {k}: {exc}",
                phase.result(state, tuple(applied), k, False, tuple(notes)),
            ) from exc
        if action.tool == f"finish{number}":
            return phase.result(state, tuple(applied), k, True, tuple(notes))
        if action.phase != number:
            feedback = f"{action.tool} is not legal in phase {number}"
        else:
            try:
                state = phase.apply(state, action)
                applied.append(action)
                strikes = 0
                continue
            except (RegroupError, RefinementError) as exc:
                feedback = str(exc)
        strikes += 1
        notes.append(f"iteration {k}: rejected ({feedback})")
        if strikes >= RETRY_BUDGET:
            raise PolicyAbort(
                f"{RETRY_BUDGET} consecutive rejected decisions: {feedback}",
                phase.result(state, tuple(applied), k, False, tuple(notes)),
            )
    return phase.result(state, tuple(applied), k, False, tuple(notes))


def run_phase1(
    width: int,
    profile: ArrivalProfile,
    target: float | None,
    max_iterations: int,
    policy: Policy,
    model: DelayModel = DelayModel(),
) -> Phase1Result:
    """Drive the backbone loop from the serial chain: each decision is a
    regroup at one of the current candidates or ``finish1``."""
    if width < 2:
        raise ValueError("width must be >= 2")

    phase = _Phase(
        DecisionContext(1, 0, max_iterations, profile, model, target),
        "backbone",
        lambda bb, action: regroup(bb, *action.args),
        lambda bb, steps, *rest: Phase1Result(bb, RegroupTrace(width, steps), *rest),
    )
    return _run(phase, init_serial(width), policy)


def run_phase2(
    graph: PrefixGraph,
    target: float | None,
    max_iterations: int,
    policy: Policy,
    profile: ArrivalProfile,
    model: DelayModel = DelayModel(),
) -> Phase2Result:
    """Drive the refinement loop over a complete graph.

    Each iteration hands the policy the current graph, whose timing report
    and critical path the context derives on demand, then applies one
    validated tool call; ends on finish2 or the iteration bound.
    """
    if not graph.is_complete:
        raise ValueError("phase 2 requires a complete graph")

    def apply(graph: PrefixGraph, action: Action) -> PrefixGraph:
        # Looked up at call time, so a wrapper installed on the module is used.
        return getattr(refine, action.tool)(graph, *action.args)

    base = DecisionContext(2, 0, max_iterations, profile, model, target)
    return _run(_Phase(base, "graph", apply, Phase2Result), graph, policy)


# -- deterministic policies ----------------------------------------------------


class CriticalPathRefinePolicy:
    """Phase-two stand-in.

    Prefers level_opt on the critical node with the largest gap between its
    actual level and the theoretical minimum for its span; falls back to
    fanout_opt, then node_clone, on the highest-fanout critical driver;
    finishes when slack is met or nothing applies.
    """

    def decide(self, ctx: DecisionContext) -> Action:
        graph = ctx.graph
        if graph is None:
            raise PolicyError("critical-path policy needs structured state")
        report = ctx.report
        if report.slack is not None and report.slack >= 0:
            return Action("finish2")

        internal = [n for n in report.critical if not n.is_input]
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
            return Action("level_opt", (node,))

        drivers = sorted(
            (n for n in report.critical if graph.fanout(n) >= 2),
            key=lambda n: (graph.fanout(n), n),
            reverse=True,
        )
        for driver in drivers:
            for consumer in graph.consumers(driver):
                try:
                    fanout_opt(graph, driver, consumer)
                except RefinementError:
                    continue
                return Action("fanout_opt", (driver, consumer))
        for driver in drivers:
            if not driver.is_input:
                return Action("node_clone", (driver,))
        return Action("finish2")


class ScriptedPolicy:
    """Replays a fixed action sequence, then finishes the current phase.

    A rejected action is re-issued verbatim (the script has no way to adapt),
    so an illegal scripted action exhausts the orchestrator's strike budget
    instead of being skipped.
    """

    def __init__(self, actions: Sequence[Action]) -> None:
        self._actions = iter(actions)
        self._last: Action | None = None

    def decide(self, ctx: DecisionContext) -> Action:
        if ctx.feedback is None or self._last is None:
            self._last = next(self._actions, None)
        return self._last or Action(f"finish{ctx.phase}")


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
            try:
                data = json.load(fh)
            except json.JSONDecodeError as exc:
                raise PolicyError(f"{path}:{exc.lineno}: {exc.msg}") from exc
            except UnicodeDecodeError as exc:
                raise PolicyError(f"{path}: {exc}") from exc
        base = data.get("base_url") if isinstance(data, dict) else None
        if not isinstance(base, str):
            raise PolicyError(f"{path}: base_url must be a string")
        try:
            return cls(
                base_url=base,
                api_key=data.get("api_key", ""),
                model=data.get("model", "default"),
                timeout=float(data.get("timeout", 60.0)),
                temperature=float(data.get("temperature", 0.0)),
            )
        except (TypeError, ValueError) as exc:
            raise PolicyError(f"{path}: {exc}") from exc


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


class RemoteLlmPolicy:
    """Asks a remote chat model for each decision.

    Messages are system prompt + built user prompt; the reply must contain a
    JSON tool call.  Malformed or phase-illegal replies get a corrective
    re-prompt, three attempts total; transport failures surface as
    :class:`PolicyError` so the orchestrator can abort with its partial
    trace.
    """

    def __init__(
        self, endpoint: RemoteEndpoint, transport: Callable[[list[dict]], str] | None = None
    ) -> None:
        self.endpoint = endpoint
        self._transport = transport or self._http_transport

    def _http_transport(self, messages: list[dict]) -> str:
        import http.client
        import urllib.request

        url = self.endpoint.base_url.rstrip("/") + "/chat/completions"
        headers = {"Content-Type": "application/json"}
        if self.endpoint.api_key:
            headers["Authorization"] = f"Bearer {self.endpoint.api_key}"
        body = {"model": self.endpoint.model, "messages": messages,
                "temperature": self.endpoint.temperature}
        try:
            data = json.dumps(body).encode("utf-8")
            request = urllib.request.Request(url, data=data, headers=headers)
            with urllib.request.urlopen(request, timeout=self.endpoint.timeout) as resp:
                payload = json.loads(resp.read())
        except (OSError, ValueError, http.client.HTTPException) as exc:
            # URLError and HTTPError are OSErrors; a bad URL or body is a ValueError.
            raise PolicyError(f"endpoint failure: {exc}") from exc
        try:
            content = payload["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError) as exc:
            raise PolicyError(f"malformed completion payload: {payload!r}") from exc
        if not isinstance(content, str):
            raise PolicyError(f"malformed completion payload: {payload!r}")
        return content

    def decide(self, ctx: DecisionContext) -> Action:
        build = build_phase1_prompt if ctx.phase == 1 else build_phase2_prompt
        messages = [
            {"role": "system", "content": system_prompt(ctx.phase)},
            {"role": "user", "content": build(ctx)},
        ]
        last_error = "no attempts made"
        for _ in range(RETRY_BUDGET):
            content = self._transport(messages)
            try:
                action = Action.from_json(_first_json_object(_strip_think(content)))
                if action.phase != ctx.phase:
                    raise PolicyError(f"{action.tool} is not legal in phase {ctx.phase}")
                return action
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
