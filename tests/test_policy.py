from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import random
import socket
import threading

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from planforge.benchgen import (
    CatalogConfig,
    build_task,
    category_space,
    oracle_best_plan,
    required_oracle_depth,
)
from planforge.context import Context, context_levels, context_to_json
from planforge.decoder import (
    DecoderConfig,
    ReplayStep,
    apply_action,
    beam_search,
    initial_state,
    replay_steps,
    step_frontier,
)
from planforge.errors import EmptyAllowedSet, EngineError, PeerProtocolError
from planforge.plan_ir import TaskCategory
from planforge.policy import (
    GuidedPlanPolicy,
    PolicyParams,
    RemotePolicy,
    TabularPolicy,
    apply_gradient,
    compile_episode,
    grad_log_prob,
    grad_log_prob_episode,
    log_prob,
    params_from_json,
    params_to_json,
    pretrain_supervised,
    score_tokens,
    serve_requests,
)
from planforge.registry import default_registry

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
        top = next(beam_search(TabularPolicy(PolicyParams()), task, registry, DecoderConfig()))
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
        plan = next(beam_search(TabularPolicy(PolicyParams()), task, registry, DecoderConfig())).plan
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
    plan = next(beam_search(TabularPolicy(PolicyParams()), task, registry, DecoderConfig())).plan
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
    plan = next(beam_search(TabularPolicy(PolicyParams()), task, registry, DecoderConfig())).plan
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


class _RandomTable(dict):
    """Weights drawn per (context, token) from a seeded stream, as in
    test_decoder. The values include -0.0, which a logit's sum from int 0
    turns into 0.0 when it is the general level, and 1e308, whose two
    levels sum to inf."""

    def __init__(self, seed: int) -> None:
        super().__init__()
        self.seed = seed

    def get(self, key, default=None):
        ctx, token = key
        return random.Random(f"{self.seed}|{ctx}|{token}").choice((-1.0, -0.0, 0.0, 0.5, 1e308))


def _plain_sum(values):
    """The built-in `sum` as it adds floats before Python 3.12: from int 0,
    left to right, uncompensated."""
    total = 0
    for value in values:
        total = total + value
    return total


def _reference_log_probs(params, levels, allowed) -> dict:
    """score_tokens as it was first written: a dict of per-token logits,
    each summed over the context's levels, then a log-softmax over them."""
    logits = {a: _plain_sum(params.get((level, a), 0.0) for level in levels) for a in allowed}
    peak = max(logits[a] for a in allowed)
    log_total = peak + math.log(_plain_sum(math.exp(logits[a] - peak) for a in allowed))
    return {a: logits[a] - log_total for a in allowed}


def _refused(params, levels, allowed) -> bool:
    """Whether some token's logit, summed over the levels as the reference
    sums it, is not finite: the policy refuses such a step."""
    return not all(
        math.isfinite(_plain_sum(params.get((level, a), 0.0) for level in levels)) for a in allowed
    )


def _reference_grad(params, steps) -> dict:
    """The gradient as it was taken before episodes were compiled: keys,
    logits and log-probabilities rebuilt from the steps on every call."""
    grad: dict = {}
    for step in steps:
        levels = context_levels(step.context)
        log_probs = _reference_log_probs(params, levels, step.actions)
        for token in step.actions:
            g = (1.0 if token == step.chosen else 0.0) - math.exp(log_probs[token])
            if g == 0.0:
                continue
            for level in levels:
                key = (level, token)
                grad[key] = grad.get(key, 0.0) + g
    return grad


def _hexes(values: dict) -> list:
    return [(key, value.hex()) for key, value in values.items()]


_REGISTRY = default_registry()
_SPACES = {category: category_space(category, CatalogConfig()) for category in TaskCategory}


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from([(c, case) for c in TaskCategory for case in _SPACES[c]]),
    st.integers(min_value=1, max_value=len(_REGISTRY)),
    st.integers(min_value=0, max_value=2**16),
    st.data(),
)
def test_compiled_gradient_equals_the_step_gradient(case, cap, table_seed, data) -> None:
    """Decoding and training share one logit sum and one normaliser. On any
    legal walk, complete or dead-ended, and any table, `score_tokens`
    equals the reference at every step, over the capped actions that
    decoding scores and the uncapped ones a replay scores; the gradient from
    `compile_episode`'s rows equals the per-step computation key for key,
    in the same key order. Both compare by float.hex, so they agree on
    every Python version. A step with a non-finite logit (1e308 on both
    levels sums to inf) is refused by `score_tokens` and by the gradient
    of any episode holding it; the episode's steps before it still match."""
    category, (chains, builder) = case
    task = build_task("x-000", category, chains, builder, samples_per_task=1)
    state, steps = initial_state(task), []
    params = _RandomTable(table_seed)
    while (frontier := step_frontier(state, task, _REGISTRY, cap)) is not None:
        token = data.draw(st.sampled_from(frontier.actions))
        steps.append(ReplayStep(frontier.context, frontier.uncapped, token))
        levels = context_levels(frontier.context)
        for actions in (frontier.actions, frontier.uncapped):
            if _refused(params, levels, actions):
                with pytest.raises(EngineError, match="is not finite"):
                    score_tokens(params, frontier.context, actions)
                continue
            assert _hexes(score_tokens(params, frontier.context, actions)) == _hexes(
                _reference_log_probs(params, levels, actions)
            )
        state = apply_action(state, frontier, token, _REGISTRY)
    refused = [_refused(params, context_levels(step.context), step.actions) for step in steps]
    clean = steps[: refused.index(True)] if True in refused else steps
    got = grad_log_prob_episode(params, compile_episode(clean))
    assert _hexes(got) == _hexes(_reference_grad(params, clean))
    if len(clean) < len(steps):
        with pytest.raises(EngineError, match="is not finite"):
            grad_log_prob_episode(params, compile_episode(steps))


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
    episodes = [replay_steps(p, t, registry) for t, p in labeled]
    trained = pretrain_supervised(PolicyParams(), episodes, epochs=50, lr=0.1)
    after = sum(log_prob(trained, p, t, registry) for t, p in labeled)
    assert after > before
    greedy = TabularPolicy(trained)
    for task, gold in labeled:
        top = next(beam_search(greedy, task, registry, DecoderConfig()))
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


@settings(max_examples=100, deadline=None)
@given(
    st.builds(Context, _FIELDS, _FIELDS, _FIELDS, _FIELDS),
    st.lists(st.text(max_size=4), min_size=1, max_size=200, unique=True),
)
def test_the_empty_table_scores_every_action_minus_log_n(ctx, actions) -> None:
    """The empty table is the uniform policy: every one of n actions
    scores exactly -log(n), and the one action of a forced step 0.0."""
    policy = TabularPolicy(PolicyParams())
    scores = policy.score_step(ctx, actions, None)
    n = len(actions)
    expected = float.hex(-math.log(n)) if n >= 2 else float.hex(0.0)
    assert list(scores) == actions
    assert {float.hex(score) for score in scores.values()} == {expected}
    with pytest.raises(EmptyAllowedSet):
        policy.score_step(ctx, [], None)


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
        plans = list(beam_search(remote, task, registry, DecoderConfig(beam_size=3)))
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
        json.dumps({"context": context_to_json(CTX), "allowed": []}),
        json.dumps({"context": context_to_json(CTX), "allowed": ["a", "a"]}),
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


def test_serve_requests_refuses_the_shared_level_as_a_previous_tool() -> None:
    """No decoder step has `*` as its previous tool; with it, a context's two
    levels would be one table entry, counted twice. The request gets an error
    reply and the loop keeps reading."""
    shared = context_levels(CTX)[0]
    lines = [
        json.dumps({"context": context_to_json(shared), "allowed": ["a", "b"]}),
        json.dumps({"context": context_to_json(CTX), "allowed": ["a", "b"]}),
    ]
    pipe = _Pipe("".join(line + "\n" for line in lines).encode())
    seen = []

    def peer(ctx: Context, allowed: list[str]) -> dict[str, float]:
        seen.append(ctx)
        return score_tokens({(shared, "a"): 1.0}, ctx, allowed)

    assert serve_requests(pipe, peer) == 2
    refused, answered = [json.loads(line) for line in pipe.outgoing.getvalue().splitlines()]
    assert set(refused) == {"error"} and "prev_tool" in refused["error"]
    assert seen == [CTX]
    assert math.isclose(math.exp(answered["scores"]["a"]), math.e / (math.e + 1))


def _strict_replies(pipe: _Pipe) -> list[dict]:
    """The peer's reply lines, parsed as strict JSON: NaN and infinities are refused."""

    def refuse(name: str):
        raise ValueError(f"reply holds {name}")

    return [json.loads(line, parse_constant=refuse) for line in pipe.outgoing.getvalue().splitlines()]


def test_serve_requests_answers_a_scorer_error_and_keeps_serving() -> None:
    """A table whose two levels for `a` overflow makes `score_tokens` raise
    `EngineError`; the peer answers that request with an error and reads on."""
    shared = context_levels(CTX)[0]
    params = PolicyParams({(shared, "a"): 1e308, (CTX, "a"): 1e308})
    lines = [
        json.dumps({"context": context_to_json(CTX), "allowed": ["a", "b"]}),
        json.dumps({"context": context_to_json(CTX), "allowed": ["b", "c"]}),
    ]
    pipe = _Pipe("".join(line + "\n" for line in lines).encode())
    assert serve_requests(pipe, functools.partial(score_tokens, params)) == 2
    refused, answered = _strict_replies(pipe)
    assert set(refused) == {"error"} and "not finite" in refused["error"]
    assert answered == {"scores": {"b": -math.log(2), "c": -math.log(2)}}


@pytest.mark.parametrize(
    "scores",
    [
        {"a": math.nan, "b": 0.0},
        {"a": math.inf, "b": 0.0},
        {"a": 10**400, "b": 0.0},
        {"a": True, "b": 0.0},
        {"a": "1", "b": 0.0},
        {"a": 0.0},
        {"a": 0.0, "b": 0.0, "c": 0.0},
        [0.0, 0.0],
        None,
    ],
)
def test_serve_requests_refuses_scores_that_are_not_finite_over_the_allowed(scores) -> None:
    """Each reply line is strict JSON: a score_fn result that is not a dict of
    finite numbers over exactly the allowed tokens is answered with an error,
    and the next request is still served."""
    line = json.dumps({"context": context_to_json(CTX), "allowed": ["a", "b"]}) + "\n"
    pipe = _Pipe((line * 2).encode())
    results = iter([scores, {"a": 1, "b": 0.5}])
    assert serve_requests(pipe, lambda ctx, allowed: next(results)) == 2
    refused, answered = _strict_replies(pipe)
    assert set(refused) == {"error"} and isinstance(refused["error"], str)
    assert answered == {"scores": {"a": 1.0, "b": 0.5}}


def test_serve_requests_lets_a_scorer_bug_raise() -> None:
    """Only `EngineError` is answered; any other exception is a bug in score_fn."""
    line = json.dumps({"context": context_to_json(CTX), "allowed": ["a", "b"]}) + "\n"

    def broken(ctx: Context, allowed: list[str]) -> dict[str, float]:
        raise KeyError("bug")

    with pytest.raises(KeyError):
        serve_requests(_Pipe(line.encode()), broken)


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


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: (
        st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3)
    ),
    max_leaves=8,
)
_TOKENS = st.sampled_from(("a", "b", "c", "é", ""))
_SCORE_VALUES = st.one_of(
    st.floats(), st.integers(), st.just(10**400), st.booleans(), st.text(max_size=2), st.none()
)
# A line without its newline: raw bytes, any JSON document, or a request
# whose context and allowed tokens may each be well-formed or not.
_REQUEST_LINES = st.one_of(
    st.binary(max_size=30).map(lambda raw: raw.replace(b"\n", b"")),
    _JSON.map(lambda doc: json.dumps(doc).encode()),
    st.fixed_dictionaries(
        {
            "context": st.one_of(
                st.just(context_to_json(CTX)),
                st.just(context_to_json(context_levels(CTX)[0])),
                st.fixed_dictionaries({name: st.text(max_size=3) for name in Context._fields}),
                _JSON,
            ),
            "allowed": st.one_of(st.lists(_TOKENS, max_size=4), _JSON),
        },
        optional={"extra": _JSON},
    ).map(lambda doc: json.dumps(doc).encode()),
)


@st.composite
def _scorers(draw):
    """A score_fn that scores from a table, raises EngineError on an
    overflowing table, or returns drawn values: per allowed token, or whole."""
    kind = draw(st.sampled_from(("table", "overflow", "values")))
    if kind == "table":
        return functools.partial(score_tokens, PolicyParams({(CTX, "a"): 2.0}))
    if kind == "overflow":
        shared = context_levels(CTX)[0]
        overflowing = PolicyParams({(shared, "a"): 1e308, (CTX, "a"): 1e308})
        return functools.partial(score_tokens, overflowing)
    results = draw(
        st.lists(
            st.one_of(_SCORE_VALUES.map(lambda v: ("each", v)), _JSON.map(lambda v: ("whole", v))),
            min_size=1,
            max_size=4,
        )
    )
    pending = iter(results * 10)

    def scorer(ctx: Context, allowed: list[str]):
        how, value = next(pending)
        return {a: value for a in allowed} if how == "each" else value

    return scorer


@settings(max_examples=60, deadline=None)
@given(st.lists(_REQUEST_LINES, min_size=1, max_size=6), _scorers())
def test_serve_requests_answers_each_line_with_one_strict_json_line(lines, scorer) -> None:
    """Whatever the request lines and whatever an EngineError-raising scorer
    does, each line gets exactly one reply line, parsed as strict JSON: an
    error string, or finite float scores over exactly the allowed tokens."""
    pipe = _Pipe(b"".join(line + b"\n" for line in lines))
    assert serve_requests(pipe, scorer) == len(lines)
    out = pipe.outgoing.getvalue()
    assert out.endswith(b"\n") and out.count(b"\n") == len(lines)
    for line, reply in zip(lines, _strict_replies(pipe)):
        assert isinstance(reply, dict) and len(reply) == 1
        if "error" in reply:
            assert isinstance(reply["error"], str)
        else:
            scores = reply["scores"]
            assert scores.keys() == set(json.loads(line)["allowed"])
            assert all(type(v) is float and math.isfinite(v) for v in scores.values())


# A reply line: the peer closing the stream, raw bytes, any JSON document,
# or a reply object with scores over some tokens, an error, or both.
_REPLY_LINES = st.one_of(
    st.just(b""),
    st.binary(max_size=30).map(lambda raw: raw.replace(b"\n", b"") + b"\n"),
    _JSON.map(lambda doc: json.dumps(doc).encode() + b"\n"),
    st.fixed_dictionaries(
        {},
        optional={
            "scores": st.one_of(st.dictionaries(_TOKENS, _SCORE_VALUES, max_size=4), _JSON),
            "error": _JSON,
        },
    ).map(lambda doc: json.dumps(doc).encode() + b"\n"),
)


@settings(max_examples=100, deadline=None)
@given(_REPLY_LINES, st.lists(_TOKENS, min_size=1, max_size=4, unique=True))
def test_remote_policy_gives_normalized_scores_or_a_stream_error(line, actions) -> None:
    """Any reply line gives scores over exactly the allowed tokens, each <= 0
    and not NaN, or raises PeerProtocolError, or ConnectionError when the
    peer has closed the stream."""
    remote = RemotePolicy(_Pipe(line))
    try:
        scores = remote.score_step(CTX, actions, None)
    except (PeerProtocolError, ConnectionError):
        return
    assert list(scores) == actions
    assert all(type(v) is float and v <= 0.0 and not math.isnan(v) for v in scores.values())
