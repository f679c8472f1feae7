from __future__ import annotations

import contextlib
import io
import json
import math
import random
import socket
import threading

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from planforge.benchgen import oracle_best_plan, required_oracle_depth
from planforge.context import Context, context_levels, context_to_json
from planforge.decoder import DecoderConfig, beam_search, initial_state, replay_steps
from planforge.errors import EmptyAllowedSet, EngineError, PeerProtocolError
from planforge.policy import (
    GuidedPlanPolicy,
    PolicyParams,
    RemotePolicy,
    TabularPolicy,
    UniformPolicy,
    apply_gradient,
    grad_log_prob,
    log_prob,
    params_from_json,
    params_to_json,
    pretrain_supervised,
    score_tokens,
    serve_requests,
)

CTX = Context("image_to_image", "Image Denoising", "Image", "fix:Blur")


def test_score_tokens_is_log_softmax() -> None:
    params = PolicyParams()
    params[(CTX, "a")] = 1.0
    scores = score_tokens(params, CTX, ["a", "b"])
    assert math.isclose(math.exp(scores["a"]), math.e / (math.e + 1))
    assert math.isclose(sum(math.exp(s) for s in scores.values()), 1.0)
    with pytest.raises(EmptyAllowedSet):
        score_tokens(params, CTX, [])


def test_log_prob_matches_uniform_replay(catalog, registry) -> None:
    params = PolicyParams()
    for task in list(catalog)[:4]:
        top = beam_search(UniformPolicy(), task, registry, DecoderConfig())[0]
        lp = log_prob(params, top.plan, task, registry)
        steps = replay_steps(top.plan, task, registry)
        assert math.isclose(lp, sum(-math.log(len(s.actions)) for s in steps))
        assert math.isclose(lp, top.log_prob)


def _random_params_for(plan, task, registry, rng) -> PolicyParams:
    params = PolicyParams()
    for step in replay_steps(plan, task, registry):
        for action in step.actions:
            for level in context_levels(step.context):
                params[(level, action)] = rng.gauss(0.0, 1.0)
    return params


def test_grad_matches_finite_differences(catalog, registry) -> None:
    rng = random.Random(11)
    h = 1e-5
    tasks = list(catalog)[:3] + [next(t for t in catalog if len(t.input_signature) == 2)]
    for task in tasks:
        plan = beam_search(UniformPolicy(), task, registry, DecoderConfig())[0].plan
        for _ in range(3):
            params = _random_params_for(plan, task, registry, rng)
            grad = grad_log_prob(params, plan, task, registry)
            assert grad
            for key, got in grad.items():
                up = params.copy()
                up[key] = up.get(key, 0.0) + h
                down = params.copy()
                down[key] = down.get(key, 0.0) - h
                fd = (
                    log_prob(up, plan, task, registry)
                    - log_prob(down, plan, task, registry)
                ) / (2 * h)
                assert abs(got - fd) <= 1e-4 * max(1.0, abs(fd))


def test_step_gradients_sum_to_zero(catalog, registry) -> None:
    rng = random.Random(5)
    task = list(catalog)[0]
    plan = beam_search(UniformPolicy(), task, registry, DecoderConfig())[0].plan
    params = _random_params_for(plan, task, registry, rng)
    for step in replay_steps(plan, task, registry):
        probs = score_tokens(params, step.context, step.actions)
        total = sum(
            (1.0 if a == step.chosen else 0.0) - math.exp(probs[a]) for a in step.actions
        )
        assert abs(total) < 1e-9


def test_grad_aggregates_per_step_terms(catalog, registry) -> None:
    rng = random.Random(6)
    task = list(catalog)[1]
    plan = beam_search(UniformPolicy(), task, registry, DecoderConfig())[0].plan
    params = _random_params_for(plan, task, registry, rng)
    manual: dict = {}
    for step in replay_steps(plan, task, registry):
        probs = score_tokens(params, step.context, step.actions)
        for action in step.actions:
            term = (1.0 if action == step.chosen else 0.0) - math.exp(probs[action])
            if term == 0.0:
                continue
            for level in context_levels(step.context):
                key = (level, action)
                manual[key] = manual.get(key, 0.0) + term
    grad = grad_log_prob(params, plan, task, registry)
    assert set(grad) == set(manual)
    for key in grad:
        assert math.isclose(grad[key], manual[key], abs_tol=1e-12)


def test_apply_gradient_scales_and_accumulates() -> None:
    params = PolicyParams()
    params[(CTX, "a")] = 1.0
    out = apply_gradient(params, {(CTX, "a"): 2.0, (CTX, "b"): -4.0}, scale=0.5)
    assert out.get((CTX, "a"), 0.0) == 2.0
    assert out.get((CTX, "b"), 0.0) == -2.0
    # The input is not mutated.
    assert params.get((CTX, "b"), 0.0) == 0.0


def test_pretraining_raises_gold_likelihood(catalog, registry) -> None:
    tasks = [t for t in catalog if len(t.input_signature) == 1][:3]
    labeled = [
        (t, oracle_best_plan(t, registry, required_oracle_depth(t)).best_plan)
        for t in tasks
    ]
    before = sum(log_prob(PolicyParams(), p, t, registry) for t, p in labeled)
    trained = pretrain_supervised(PolicyParams(), labeled, registry, epochs=50, lr=0.1)
    after = sum(log_prob(trained, p, t, registry) for t, p in labeled)
    assert after > before
    greedy = TabularPolicy(trained)
    for task, gold in labeled:
        top = beam_search(greedy, task, registry, DecoderConfig())[0]
        assert tuple(n.tool for n in top.plan.nodes) == tuple(n.tool for n in gold.nodes)


def test_params_json_round_trip() -> None:
    params = PolicyParams()
    params[(CTX, "a")] = -0.12345678901234567
    params[(Context("x", "*", "Text", "end"), "<end>")] = 3.5
    doc = params_to_json(params)
    assert doc["version"] == 1
    back = params_from_json(doc)
    assert back == params


_FIELDS = st.text(alphabet="ab*", max_size=2)
_TABLES = st.dictionaries(
    st.tuples(st.builds(Context, _FIELDS, _FIELDS, _FIELDS, _FIELDS), st.sampled_from(("a", "<end>"))),
    st.floats(allow_nan=False, allow_infinity=False),
    max_size=12,
)


@settings(max_examples=100, deadline=None)
@given(_TABLES, st.randoms(use_true_random=False))
def test_checkpoint_bytes_do_not_depend_on_insertion_order(values, rng) -> None:
    """Entries are sorted by their JSON form, so a checkpoint's bytes
    depend only on the table, not on how its keys hash or were added."""
    items = list(values.items())
    rng.shuffle(items)
    doc = params_to_json(PolicyParams(values))
    assert json.dumps(params_to_json(PolicyParams(dict(items)))) == json.dumps(doc)
    assert params_to_json(params_from_json(json.loads(json.dumps(doc)))) == doc


def test_guided_policy_argmax_is_the_target_step(catalog, registry) -> None:
    task = list(catalog)[0]
    gold = oracle_best_plan(task, registry, required_oracle_depth(task)).best_plan
    policy = GuidedPlanPolicy(gold, registry)
    state = initial_state(task)
    from planforge.decoder import step_frontier

    frontier = step_frontier(state, task, registry, DecoderConfig().max_tools_per_branch)
    scores = policy.score_step(frontier.context, frontier.actions, state)
    assert max(scores, key=scores.get) == gold.nodes[0].tool


def test_remote_policy_round_trips_scores(catalog, registry) -> None:
    left, right = socket.socketpair()
    server_io = right.makefile("rwb")
    client_io = left.makefile("rwb")

    def peer(ctx: Context, allowed: list[str]) -> dict[str, float]:
        return {a: float(len(a)) for a in allowed}

    server = threading.Thread(target=serve_requests, args=(server_io, peer))
    server.start()
    try:
        remote = RemotePolicy(client_io)
        task = list(catalog)[0]
        plans = beam_search(remote, task, registry, DecoderConfig(beam_size=3))
        assert plans
        # Longest action name wins every step under the peer's scoring.
        scores = remote.score_step(CTX, ["ab", "c"], None)
        assert math.isclose(math.exp(scores["ab"]), math.e / (math.e + 1))
    finally:
        client_io.close()
        left.close()
        server.join(timeout=5)
        server_io.close()
        right.close()


def test_remote_policy_reports_closed_peer() -> None:
    left, right = socket.socketpair()
    client_io = left.makefile("rwb")
    right.close()
    remote = RemotePolicy(client_io)
    with pytest.raises(ConnectionError):
        remote.score_step(CTX, ["a"], None)
    with contextlib.suppress(OSError):
        client_io.close()
    left.close()


class _Pipe:
    """In-memory transport: reads the given bytes, collects what is written."""

    def __init__(self, incoming: bytes) -> None:
        self.incoming = io.BytesIO(incoming)
        self.outgoing = io.BytesIO()

    def readline(self) -> bytes:
        return self.incoming.readline()

    def write(self, data: bytes) -> None:
        self.outgoing.write(data)

    def flush(self) -> None:
        pass


@pytest.mark.parametrize(
    "reply",
    [
        b"not json\n",
        b"\xff\xfe\n",
        b"[1, 2]\n",
        b'{"logits": {"a": 1.0}}\n',
        b'{"scores": [1.0]}\n',
        b'{"scores": {"a": "high"}}\n',
        b'{"scores": {"a": null}}\n',
        b'{"scores": {"a": true}}\n',
        b'{"scores": {"a": NaN}}\n',
        b'{"scores": {"b": -Infinity}}\n',
        b'{"error": "bad request"}\n',
        b'{"scores": {"a": 1' + b"0" * 400 + b'}}\n',
        b"[" * 100_000 + b"\n",
    ],
)
def test_remote_policy_rejects_a_bad_reply(reply) -> None:
    remote = RemotePolicy(_Pipe(reply))
    with pytest.raises(PeerProtocolError) as info:
        remote.score_step(CTX, ["a", "b"], None)
    assert isinstance(info.value, EngineError)
    assert "\n" not in str(info.value)


def test_serve_requests_answers_malformed_lines_and_keeps_serving() -> None:
    good = json.dumps({"context": context_to_json(CTX), "allowed": ["a", "b"]})
    lines = [
        "garbage",
        "[]",
        json.dumps({"context": {"hint": "x"}, "allowed": ["a"]}),
        json.dumps({"context": context_to_json(CTX), "allowed": "a"}),
        json.dumps({"context": context_to_json(CTX), "allowed": [1]}),
        "[" * 100_000,
        good,
    ]
    pipe = _Pipe("".join(line + "\n" for line in lines).encode())
    seen = []

    def peer(ctx: Context, allowed: list[str]) -> dict[str, float]:
        seen.append((ctx, allowed))
        return {a: 1.0 for a in allowed}

    assert serve_requests(pipe, peer) == len(lines)
    replies = [json.loads(line) for line in pipe.outgoing.getvalue().splitlines()]
    assert len(replies) == len(lines)
    for reply in replies[:-1]:
        assert set(reply) == {"error"} and isinstance(reply["error"], str)
    assert replies[-1] == {"scores": {"a": 1.0, "b": 1.0}}
    assert seen == [(CTX, ["a", "b"])]


def test_remote_policy_raises_on_the_servers_error_reply() -> None:
    server = _Pipe(b"{not json\n")
    serve_requests(server, lambda ctx, allowed: {})
    remote = RemotePolicy(_Pipe(server.outgoing.getvalue()))
    with pytest.raises(PeerProtocolError, match="request is not JSON"):
        remote.score_step(CTX, ["a"], None)


def test_remote_policy_accepts_integer_and_missing_scores() -> None:
    remote = RemotePolicy(_Pipe(b'{"scores": {"a": 1, "c": 5.0}}\n'))
    scores = remote.score_step(CTX, ["a", "b"], None)
    assert math.isclose(math.exp(scores["a"]), math.e / (math.e + 1))
    sent = json.loads(remote.transport.outgoing.getvalue())
    assert sent == {"context": context_to_json(CTX), "allowed": ["a", "b"]}
