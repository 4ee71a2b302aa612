"""Decision layer: tool records, prompts, orchestration loops, policies."""

from __future__ import annotations

import dataclasses
import json
import re
import urllib.error
import urllib.request

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prefixsynth import policy as policy_module
from prefixsynth.backbone import (
    balanced_backbone,
    complete,
    find_candidates,
    init_serial,
)
from prefixsynth.esat import derive_trace, extract_optimal, saturate
from prefixsynth.graph import Node
from prefixsynth.policy import (
    Action,
    CriticalPathRefinePolicy,
    DecisionContext,
    PolicyAbort,
    PolicyError,
    RemoteEndpoint,
    RemoteLlmPolicy,
    ScriptedPolicy,
    build_phase1_prompt,
    build_phase2_prompt,
    parse_script,
    run_phase1,
    run_phase2,
    system_prompt,
    tool_schemas,
)
from prefixsynth.timing import ArrivalProfile, DelayModel, graph_arrivals

from oracles import random_shape, shape_to_backbone

MODEL = DelayModel()

ALL_CALLS = [
    Action("regroup", (Node(3, 3), Node(2, 2))),
    Action("finish1"),
    Action("level_opt", (Node(3, 0),)),
    Action("fanout_opt", (Node(1, 0), Node(3, 0))),
    Action("node_clone", (Node(3, 0, 1),)),
    Action("finish2"),
]

LINES = [
    "regroup 3 3 2 2",
    "finish1",
    "level_opt (3,0)",
    "fanout_opt (1,0) (3,0)",
    "node_clone (3,0)#1",
    "finish2",
]


# Ids spell the tool in CamelCase: Regroup, Finish1, LevelOpt, ...
@pytest.mark.parametrize(
    "call", ALL_CALLS, ids=lambda c: c.tool.title().replace("_", "")
)
def test_tool_record_round_trip(call) -> None:
    rec = call.to_json()
    assert Action.from_json(rec) == call
    assert Action.from_json(json.loads(json.dumps(rec))) == call
    line = LINES[ALL_CALLS.index(call)]
    assert call.to_line() == line
    assert Action.from_line(line) == call


def test_from_record_rejects_garbage() -> None:
    with pytest.raises(PolicyError):
        Action.from_json({"tool": "merge", "args": {}})
    with pytest.raises(PolicyError):
        Action.from_json({"args": {}})
    with pytest.raises(PolicyError):
        Action.from_json("finish1")
    with pytest.raises(PolicyError):
        Action.from_json({"tool": "regroup", "args": {"a": "(3,3)"}})
    with pytest.raises(PolicyError):
        Action.from_json({"tool": "level_opt", "args": {"target": "(3,x)"}})
    for line in ("merge (3,0)", "regroup 3 3 2", "regroup 3 3 2 x", "level_opt",
                 "fanout_opt (1,0)", "node_clone (3,x)", "finish1 (3,0)"):
        with pytest.raises(PolicyError):
            Action.from_line(line)


def test_parse_script_assigns_lines_to_phases() -> None:
    text = (
        "# a comment\n"
        "regroup 3 3 2 2\n"
        "\n"
        "  # an indented comment\n"
        "finish1\n"
        "level_opt (3,0)\n"
        "finish\n"
        "anything after the end is ignored\n"
    )
    assert parse_script(text) == (
        (Action("regroup", (Node(3, 3), Node(2, 2))),),
        (Action("level_opt", (Node(3, 0),)),),
    )
    # a phase-2 line also ends phase 1, as in a trace.txt whose phase 1 ran
    # out of iterations
    assert parse_script("regroup 3 3 2 2\nnode_clone (1,0)\n") == (
        (Action("regroup", (Node(3, 3), Node(2, 2))),),
        (Action("node_clone", (Node(1, 0),)),),
    )
    assert parse_script("") == ((), ())
    # once phase 2 has begun, any finish line ends the script
    assert parse_script("finish1\nlevel_opt (3,0)\nfinish1\nnode_clone (1,0)\n") == (
        (),
        (Action("level_opt", (Node(3, 0),)),),
    )


@pytest.mark.parametrize(
    "text,message",
    [
        ("regroup 3 3 2 2\nregroup 1 2\n", "line 2: expected 'regroup"),
        ("finish1\n\n# note\nlevel_opt (3,x)\n", "line 4: bad node token"),
        ("finish1\nregroup 3 3 2 2\n", "line 2: regroup after phase 2 began"),
        ("level_opt (3,0)\nregroup 3 3 2 2\n", "line 2: regroup after phase 2 began"),
        ("finish1\nmerge (3,0)\n", "line 2: unknown tool 'merge'"),
    ],
)
def test_parse_script_errors_name_the_line(text: str, message: str) -> None:
    with pytest.raises(PolicyError, match="^" + re.escape(message)):
        parse_script(text)


def test_tool_schemas_phase_split() -> None:
    names1 = {s["name"] for s in tool_schemas(1)}
    names2 = {s["name"] for s in tool_schemas(2)}
    assert names1 == {"regroup", "finish1"}
    assert names2 == {"level_opt", "fanout_opt", "node_clone", "finish2"}
    with pytest.raises(ValueError):
        tool_schemas(3)


def _phase1_ctx(width: int = 4) -> DecisionContext:
    profile = ArrivalProfile((0.0350, 0.0350, 0.0250, 0.0150))
    return DecisionContext(
        phase=1,
        iteration=1,
        max_iterations=8,
        profile=profile,
        model=MODEL,
        target=0.2,
        backbone=balanced_backbone(width),
    )


def test_phase1_prompt_contains_state_block() -> None:
    ctx = _phase1_ctx()
    prompt = build_phase1_prompt(ctx)
    assert "(3,0) [arrival=0.1050]" in prompt
    assert build_phase1_prompt(ctx) == prompt  # deterministic


def test_phase2_prompt_contains_efficiency_line() -> None:
    g = complete(init_serial(4))
    profile = ArrivalProfile((0.0350, 0.0350, 0.0250, 0.0150))
    ctx = DecisionContext(
        phase=2,
        iteration=1,
        max_iterations=8,
        profile=profile,
        model=MODEL,
        target=0.2,
        graph=g,
    )
    prompt = build_phase2_prompt(ctx)
    assert ctx.report.critical == (Node(1, 1), Node(1, 0), Node(2, 0), Node(3, 0))
    assert "Lvl efficiency:2/3" in prompt
    assert f"area={g.size}," in prompt
    assert build_phase2_prompt(ctx) == prompt


def test_system_prompts_are_versioned_assets() -> None:
    assert "phase-1" in system_prompt(1)
    assert "phase-2" in system_prompt(2)
    with pytest.raises(ValueError):
        system_prompt(3)


def test_run_phase1_scripted_reproduces_figure() -> None:
    trace = derive_trace(balanced_backbone(8))
    result = run_phase1(
        8, ArrivalProfile.uniform(8), None, 16,
        ScriptedPolicy(trace.steps),
    )
    assert result.finished
    assert Node(7, 4) in result.backbone.nodes
    assert Node(5, 0) not in result.backbone.nodes
    assert result.trace.steps == trace.steps


def _optimum_replay(width: int, profile: ArrivalProfile) -> ScriptedPolicy:
    """The offline phase-1 policy: the e-graph optimum's regroup trace."""
    optimum = extract_optimal(saturate(init_serial(width)), profile, MODEL)
    return ScriptedPolicy(derive_trace(optimum).steps)


def test_run_phase1_width_two_forced_finish() -> None:
    profile = ArrivalProfile.uniform(2)
    result = run_phase1(2, profile, None, 4, _optimum_replay(2, profile))
    assert result.finished
    assert result.iterations == 1
    assert result.backbone.nodes == init_serial(2).nodes


def test_deterministic_policies_never_render_state(monkeypatch) -> None:
    profile = ArrivalProfile.preset("random", 24, MODEL, seed=3)
    replay = _optimum_replay(24, profile)

    def refuse(*args, **kwargs):
        raise AssertionError("a view derived for a policy that never reads it")

    for name in ("to_timed_sexpr", "render_epr", "find_candidates", "critical_path"):
        monkeypatch.setattr(policy_module, name, refuse)
    p1 = run_phase1(24, profile, None, 64, replay, MODEL)
    assert p1.finished and p1.trace.steps
    p2 = run_phase2(complete(p1.backbone), 0.3, 64, CriticalPathRefinePolicy(), profile, MODEL)
    assert p2.actions


def test_state_text_is_rendered_on_first_access() -> None:
    ctx = _phase1_ctx()
    assert "state_text" not in vars(ctx)
    text = ctx.state_text
    assert text.startswith("(3,0) [arrival=")
    assert vars(ctx)["state_text"] is text


def test_context_holds_state_and_derives_its_views() -> None:
    fields = {f.name for f in dataclasses.fields(DecisionContext)}
    assert fields == {
        "phase", "iteration", "max_iterations", "profile", "model", "target",
        "backbone", "graph", "feedback",
    }
    ctx = _phase1_ctx()
    assert ctx.width == 4
    assert "candidates" not in vars(ctx)
    assert ctx.candidates == tuple(find_candidates(ctx.backbone))
    assert vars(ctx)["candidates"] is ctx.candidates

    g = complete(init_serial(8))
    ctx = DecisionContext(2, 1, 8, ArrivalProfile.uniform(8), MODEL, 0.2, graph=g)
    assert not {"report", "critical"} & set(vars(ctx))
    assert ctx.report == graph_arrivals(g, ctx.profile, MODEL, 0.2)
    assert ctx.critical.nodes == ctx.report.critical
    assert vars(ctx)["critical"] is ctx.critical


def test_run_phase1_respects_iteration_bound() -> None:
    calls = 0

    class Counting:
        def decide(self, ctx: DecisionContext):
            nonlocal calls
            calls += 1
            if ctx.candidates:
                return Action("regroup", ctx.candidates[0])
            return Action("finish1")

    result = run_phase1(16, ArrivalProfile.uniform(16), None, 3, Counting())
    assert calls == 3
    assert result.iterations == 3
    assert not result.finished


def test_run_phase1_aborts_on_persistent_illegal_call() -> None:
    # a scripted stale candidate is re-issued until the strike budget trips
    policy = ScriptedPolicy([Action("regroup", (Node(9, 9), Node(8, 8)))])
    with pytest.raises(PolicyAbort) as exc_info:
        run_phase1(4, ArrivalProfile.uniform(4), None, 8, policy)
    partial = exc_info.value.partial
    assert partial.trace.steps == ()
    assert not partial.finished


def test_run_phase1_rejects_phase2_call() -> None:
    policy = ScriptedPolicy([Action("level_opt", (Node(3, 0),))])
    with pytest.raises(PolicyAbort):
        run_phase1(4, ArrivalProfile.uniform(4), None, 8, policy)


def test_run_phase2_finishes_when_target_met() -> None:
    g = complete(balanced_backbone(4))
    result = run_phase2(
        g, 1.0, 8, CriticalPathRefinePolicy(), ArrivalProfile.uniform(4)
    )
    assert result.finished
    assert result.iterations == 1
    assert result.actions == ()
    assert result.graph == g


def test_run_phase2_serial_sixteen_tight_target() -> None:
    g = complete(init_serial(16))
    profile = ArrivalProfile.uniform(16)
    before = graph_arrivals(g, profile, MODEL).delay
    result = run_phase2(g, 0.3, 64, CriticalPathRefinePolicy(), profile)
    assert result.actions
    assert result.actions[0] == Action("level_opt", (Node(15, 0),))
    one = run_phase2(g, 0.3, 1, ScriptedPolicy(result.actions[:1]), profile)
    after = graph_arrivals(one.graph, profile, MODEL).delay
    assert after < before
    final = graph_arrivals(result.graph, profile, MODEL).delay
    assert final < before


def test_run_phase2_forced_finish_when_no_tool_applies() -> None:
    g = complete(init_serial(2))
    result = run_phase2(
        g, 0.0, 8, CriticalPathRefinePolicy(), ArrivalProfile.uniform(2)
    )
    assert result.finished
    assert result.actions == ()


def test_run_phase2_abort_on_scripted_illegal_action() -> None:
    g = complete(init_serial(4))
    policy = ScriptedPolicy([Action("node_clone", (Node(1, 0),))])  # fanout 1: rejected
    with pytest.raises(PolicyAbort) as exc_info:
        run_phase2(g, 0.0, 8, policy, ArrivalProfile.uniform(4))
    assert exc_info.value.partial.actions == ()


def test_run_phase2_requires_complete_graph() -> None:
    from prefixsynth.graph import PrefixGraph

    partial = PrefixGraph(4, parents={Node(3, 2): (Node(3, 3), Node(2, 2))})
    with pytest.raises(ValueError):
        run_phase2(partial, 0.0, 4, CriticalPathRefinePolicy(), ArrivalProfile.uniform(4))


@given(st.integers(3, 10), st.randoms(use_true_random=False))
@settings(max_examples=30, deadline=None)
def test_scripted_trace_replay_is_exact(width: int, rng) -> None:
    target = shape_to_backbone(random_shape(width - 1, 0, rng))
    trace = derive_trace(target)
    result = run_phase1(
        width, ArrivalProfile.uniform(width), None, len(trace.steps) + 1,
        ScriptedPolicy(trace.steps),
    )
    assert result.backbone.nodes == target.nodes


# -- remote policy plumbing -----------------------------------------------------


def _ctx_for_remote() -> DecisionContext:
    return _phase1_ctx()


def test_remote_policy_parses_tool_call() -> None:
    def transport(messages):
        assert messages[0]["role"] == "system"
        return (
            "<think>considering the rotation options</think>\n"
            'Done. {"tool": "finish1", "args": {}}'
        )

    policy = RemoteLlmPolicy(RemoteEndpoint("http://unused"), transport)
    assert policy.decide(_ctx_for_remote()) == Action("finish1")


def test_remote_policy_corrective_reprompt() -> None:
    replies = iter(
        [
            "no json here",
            '{"tool": "merge", "args": {}}',
            '{"tool": "regroup", "args": {"a": "(3,2)", "b": "(1,1)"}}',
        ]
    )
    seen: list[list[dict]] = []

    def transport(messages):
        seen.append(list(messages))
        return next(replies)

    policy = RemoteLlmPolicy(RemoteEndpoint("http://unused"), transport)
    call = policy.decide(_ctx_for_remote())
    assert call == Action("regroup", (Node(3, 2), Node(1, 1)))
    assert len(seen) == 3
    # each retry appends the rejected reply and a corrective user message
    assert seen[1][-1]["role"] == "user"
    assert "rejected" in seen[1][-1]["content"]


def test_remote_policy_gives_up_after_three() -> None:
    def transport(messages):
        return "still not a tool call"

    policy = RemoteLlmPolicy(RemoteEndpoint("http://unused"), transport)
    with pytest.raises(PolicyError):
        policy.decide(_ctx_for_remote())


def test_remote_policy_rejects_phase_illegal_tool() -> None:
    def transport(messages):
        return '{"tool": "level_opt", "args": {"target": "(3,0)"}}'

    policy = RemoteLlmPolicy(RemoteEndpoint("http://unused"), transport)
    with pytest.raises(PolicyError):
        policy.decide(_ctx_for_remote())


def test_remote_endpoint_configuration(tmp_path, monkeypatch) -> None:
    monkeypatch.setenv("PREFIXSYNTH_API_BASE", "http://example.test/v1")
    monkeypatch.setenv("PREFIXSYNTH_API_KEY", "sekrit")
    monkeypatch.setenv("PREFIXSYNTH_MODEL", "tiny")
    ep = RemoteEndpoint.from_env()
    assert ep.base_url == "http://example.test/v1"
    assert ep.api_key == "sekrit"
    assert ep.model == "tiny"

    cfg = tmp_path / "endpoint.json"
    cfg.write_text(
        json.dumps({"base_url": "http://file.test", "model": "m", "timeout": 5})
    )
    ep2 = RemoteEndpoint.from_config(str(cfg))
    assert ep2.base_url == "http://file.test"
    assert ep2.timeout == 5


class _Reply:
    """Stands in for the response object ``urlopen`` returns."""

    def __init__(self, body: bytes) -> None:
        self._body = body

    def __enter__(self) -> _Reply:
        return self

    def __exit__(self, *exc) -> None:
        return None

    def read(self) -> bytes:
        return self._body


def _http_policy() -> RemoteLlmPolicy:
    return RemoteLlmPolicy(RemoteEndpoint("http://endpoint.test/v1/", api_key="k"))


def test_http_transport_posts_chat_completion(monkeypatch) -> None:
    seen = {}

    def urlopen(request, timeout):
        seen.update(url=request.full_url, method=request.get_method(), timeout=timeout,
                    auth=request.get_header("Authorization"), body=json.loads(request.data))
        return _Reply(b'{"choices": [{"message": {"content": "hello"}}]}')

    monkeypatch.setattr(urllib.request, "urlopen", urlopen)
    messages = [{"role": "user", "content": "hi"}]
    assert _http_policy()._http_transport(messages) == "hello"
    assert seen == {
        "url": "http://endpoint.test/v1/chat/completions",
        "method": "POST",
        "timeout": 60.0,
        "auth": "Bearer k",
        "body": {"model": "default", "messages": messages, "temperature": 0.0},
    }


def _http_error(request, timeout):
    raise urllib.error.HTTPError(request.full_url, 503, "Service Unavailable", None, None)


@pytest.mark.parametrize(
    "urlopen,message",
    [
        (_http_error, "endpoint failure: HTTP Error 503"),
        (lambda request, timeout: _Reply(b"<html>"), "endpoint failure: "),
        (lambda request, timeout: _Reply(b'{"choices": []}'), "malformed completion payload"),
        (
            lambda request, timeout: _Reply(b'{"choices": [{"message": {"content": null}}]}'),
            "malformed completion payload",
        ),
    ],
    ids=["http-error", "not-json", "malformed-payload", "content-not-text"],
)
def test_http_transport_failures_are_policy_errors(monkeypatch, urlopen, message) -> None:
    monkeypatch.setattr(urllib.request, "urlopen", urlopen)
    with pytest.raises(PolicyError, match="^" + re.escape(message)):
        _http_policy()._http_transport([{"role": "user", "content": "hi"}])
