"""Indicator scoring: cosine, length, prompt rendering, HTTP providers."""

import http.client
import json
import math
import socket
import ssl
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vlcurate.corpus import ScoreCache, ScoreRecord, Triplet
from vlcurate.errors import (
    BadConfig,
    DegenerateEmbedding,
    DimensionMismatch,
    MissingScore,
    ScoreOutOfRange,
    ScoringFailed,
    TemplateError,
    UnparseableScore,
)
from vlcurate.indicators import (
    PromptTemplate,
    RatingClient,
    RewardClient,
    clip_score,
    default_prompt_template,
    length_score,
    parse_gpt_reply,
    render_gpt_prompt,
    score_corpus,
)

from conftest import KeepAliveStub, make_features, make_manifest


def test_clip_score_identical_direction():
    assert clip_score([1.0, 0.0], [1.0, 0.0]) == 1.0


def test_clip_score_orthogonal():
    assert clip_score([1.0, 0.0], [0.0, 1.0]) == 0.0


def test_clip_score_three_four():
    # dot = 24, norms = 5*5
    assert clip_score([3.0, 4.0], [4.0, 3.0]) == pytest.approx(24 / 25, abs=1e-12)


def test_clip_score_zero_norm():
    with pytest.raises(DegenerateEmbedding):
        clip_score([0.0, 0.0], [1.0, 0.0])


def test_clip_score_dim_mismatch():
    with pytest.raises(DimensionMismatch):
        clip_score([1.0, 0.0], [1.0, 0.0, 0.0])


finite = st.floats(-1e6, 1e6, allow_nan=False)


@given(
    v=st.lists(finite, min_size=2, max_size=6),
    w=st.lists(finite, min_size=2, max_size=6),
    a=st.floats(1e-3, 1e3),
    b=st.floats(1e-3, 1e3),
)
@settings(max_examples=150)
def test_clip_score_scale_invariant_and_clamped(v, w, a, b):
    n = min(len(v), len(w))
    v, w = np.array(v[:n]), np.array(w[:n])
    if np.linalg.norm(v) < 1e-6 or np.linalg.norm(w) < 1e-6:
        return
    base = clip_score(v, w)
    assert -1.0 <= base <= 1.0
    assert clip_score(a * v, b * w) == pytest.approx(base, abs=1e-9)
    assert clip_score(w, v) == pytest.approx(base, abs=1e-12)


def test_length_score_basic():
    assert length_score("") == 0
    assert length_score("hello world") == 2


def test_length_score_114_word_paragraph():
    words = [f"w{i}" for i in range(114)]
    assert length_score(" ".join(words)) == 114


def test_length_score_whitespace_invariant():
    assert length_score("  a \t b \n c  ") == length_score("a b c") == 3


# -- prompt rendering ----------------------------------------------------

def test_render_substitutes_both_slots():
    system, user = render_gpt_prompt(
        default_prompt_template(), "Describe this image in detail.", "A cat."
    )
    assert "Instruction: Describe this image in detail." in system
    assert "Caption: A cat." in system
    assert "[Instruction]" not in system
    assert "[Caption]" not in system
    assert user  # fixed nonempty user text


def test_render_empty_instruction_allowed():
    system, _ = render_gpt_prompt(default_prompt_template(), "", "A cat.")
    assert "[Instruction]" not in system


def test_render_single_pass_substitution():
    # a slot-looking string inside the response must survive verbatim
    system, _ = render_gpt_prompt(
        default_prompt_template(), "q", "contains [Caption] literally"
    )
    assert system.count("[Caption]") == 1
    assert "contains [Caption] literally" in system


def test_render_golden_reconstruction():
    template = default_prompt_template()
    system, user = render_gpt_prompt(template, "", "")
    assert system == template.system_template.replace("[Instruction]", "").replace(
        "[Caption]", ""
    )
    assert user == template.user_template


def test_template_missing_slot():
    broken = PromptTemplate(system_template="rate [Caption] please", user_template="u")
    with pytest.raises(TemplateError):
        render_gpt_prompt(broken, "q", "r")


def test_parse_gpt_reply_contract():
    assert parse_gpt_reply("87\nThe caption is clear...") == 87.0
    assert parse_gpt_reply("  95.5 \nexplanation") == 95.5
    assert parse_gpt_reply("\n\n 42") == 42.0
    with pytest.raises(UnparseableScore):
        parse_gpt_reply("Score: high")
    with pytest.raises(UnparseableScore):
        parse_gpt_reply("")
    with pytest.raises(ScoreOutOfRange):
        parse_gpt_reply("150\nok")


# -- HTTP providers ------------------------------------------------------

def _triplet(i=0):
    return Triplet(f"t{i}", "x.png", "Describe this image in detail.", "A small cat.")


def test_rating_client_happy_path(http_stub):
    http_stub.handler = lambda payload: {"content": "50\nok"}
    client = RatingClient(http_stub.url, retries=1)
    assert client.score(_triplet()) == 50.0
    sent = http_stub.received[0]["payload"]
    assert "Describe this image in detail." in sent["system"]
    assert "A small cat." in sent["system"]


def test_rating_client_retry_then_succeed(http_stub):
    replies = iter([{"content": "garbage"}, {"content": "nope"}, {"content": "70\nok"}])
    http_stub.handler = lambda payload: next(replies)
    client = RatingClient(http_stub.url, retries=3)
    assert client.score(_triplet()) == 70.0
    assert len(http_stub.received) == 3


def test_rating_client_retries_exhausted(http_stub):
    http_stub.handler = lambda payload: 500
    client = RatingClient(http_stub.url, retries=2)
    with pytest.raises(ScoringFailed) as err:
        client.score(_triplet(3))
    assert err.value.sample_id == "t3"
    assert len(http_stub.received) == 2


def test_rating_client_sends_auth_header(http_stub):
    http_stub.handler = lambda payload: {"content": "10"}
    client = RatingClient(
        http_stub.url, retries=1, headers={"Authorization": "Bearer sk-test"}
    )
    client.score(_triplet())
    assert http_stub.received[0]["headers"]["Authorization"] == "Bearer sk-test"


def test_reward_client_values(http_stub):
    http_stub.handler = lambda payload: {"score": 1.25}
    client = RewardClient(http_stub.url, retries=1)
    assert client.score(_triplet()) == 1.25
    http_stub.handler = lambda payload: {"score": -3.0}
    assert client.score(_triplet()) == -3.0  # negatives legal, reward is unbounded
    assert http_stub.received[-1]["payload"] == {
        "question": "Describe this image in detail.",
        "answer": "A small cat.",
    }


def test_reward_client_table_driven(http_stub):
    table = {f"answer {i}": float(i) * 0.5 - 2.0 for i in range(10)}
    http_stub.handler = lambda payload: {"score": table[payload["answer"]]}
    client = RewardClient(http_stub.url, retries=1)
    for i in range(10):
        t = Triplet(f"t{i}", "x", "q", f"answer {i}")
        assert client.score(t) == table[f"answer {i}"]


@pytest.mark.parametrize("body", [[1, 2], {"content": 5}, {"score": None}, "plain",
                                  '{"score": NaN}', '{"score": -Infinity}',
                                  pytest.param('{"score": 1' + "0" * 400 + "}", id="huge-int"),
                                  pytest.param("[" * 100_000, id="deep-nesting")])
@pytest.mark.parametrize("make_client", [RatingClient, RewardClient])
def test_clients_turn_malformed_replies_into_scoring_failed(http_stub, body, make_client):
    http_stub.handler = lambda payload: body
    client = make_client(http_stub.url, retries=2)
    with pytest.raises(ScoringFailed) as err:
        client.score(_triplet(4))
    assert err.value.sample_id == "t4"
    assert len(http_stub.received) == 2


def test_one_thread_keeps_one_connection(keepalive_stub):
    keepalive_stub.handler = lambda payload: {"score": 0.5}
    client = RewardClient(keepalive_stub.url, retries=1)
    try:
        assert [client.score(_triplet(i)) for i in range(10)] == [0.5] * 10
    finally:
        client.close()
    assert len(keepalive_stub.received) == 10
    assert keepalive_stub.connections == 1


def test_connection_closed_while_idle_is_reopened(keepalive_stub):
    # each reused connection is already closed: only the free resend succeeds
    keepalive_stub.drop_idle = True
    keepalive_stub.handler = lambda payload: {"score": float(payload["answer"])}
    client = RewardClient(keepalive_stub.url, retries=1)
    try:
        for i in range(5):
            assert client.score(Triplet(f"t{i}", "x", "q", str(i))) == float(i)
    finally:
        client.close()
    assert [r["payload"]["answer"] for r in keepalive_stub.received] == list("01234")
    assert keepalive_stub.connections == 5


def test_error_reply_is_drained_and_connection_reused(keepalive_stub):
    replies = iter([(500, b"upstream busy, try again"), {"score": 2.0}])
    keepalive_stub.handler = lambda payload: next(replies)
    client = RewardClient(keepalive_stub.url, retries=2)
    try:
        assert client.score(_triplet()) == 2.0
    finally:
        client.close()
    assert len(keepalive_stub.received) == 2
    assert keepalive_stub.connections == 1


@pytest.mark.parametrize("status", [204, 304])
def test_bodyless_status_with_a_body_does_not_spoil_the_next_reply(keepalive_stub, status):
    # http.client reads no body after 204/304; bytes sent anyway must not
    # be taken for the next reply's status line
    replies = iter([(status, b"stray bytes"), {"score": 1.0}])
    keepalive_stub.handler = lambda payload: next(replies)
    client = RewardClient(keepalive_stub.url, retries=2)
    try:
        assert client.score(_triplet()) == 1.0
    finally:
        client.close()
    assert len(keepalive_stub.received) == 2


def test_url_path_is_sent_percent_encoded(keepalive_stub):
    keepalive_stub.handler = lambda payload: {"score": 1.0}
    client = RewardClient(keepalive_stub.url + "v1/ré te?model=a%2Fb", retries=1)
    try:
        assert client.score(_triplet()) == 1.0
    finally:
        client.close()
    assert keepalive_stub.received[0]["path"] == "/v1/r%C3%A9%20te?model=a%2Fb"


def test_silent_server_fails_within_retries_times_timeout():
    # a listening socket that never accepts: connect succeeds, no reply comes
    with socket.create_server(("127.0.0.1", 0), backlog=8) as silent:
        url = f"http://127.0.0.1:{silent.getsockname()[1]}/r"
        client = RewardClient(url, retries=2, timeout=0.3)
        started = time.monotonic()
        with pytest.raises(ScoringFailed) as err:
            client.score(_triplet(7))
        elapsed = time.monotonic() - started
        client.close()
    assert err.value.sample_id == "t7"
    assert 0.5 < elapsed < 3.0


def test_https_url_gets_a_verifying_tls_connection():
    client = RatingClient("https://grader.invalid:8443/v1/rate?model=x")
    conn = client._connection()  # connections open lazily: no network here
    assert isinstance(conn, http.client.HTTPSConnection)
    assert (conn.host, conn.port) == ("grader.invalid", 8443)
    assert conn._context.verify_mode == ssl.CERT_REQUIRED
    assert conn._context.check_hostname
    assert client._target == "/v1/rate?model=x"


@pytest.mark.parametrize("url", ["", "ftp://x/r", "localhost:9/r", "http:///r",
                                 "http://user:pw@host/r", "http://host:port/r"])
@pytest.mark.parametrize("make_client", [RatingClient, RewardClient])
def test_bad_provider_url_is_bad_config(url, make_client):
    with pytest.raises(BadConfig):
        make_client(url)


@pytest.fixture(scope="module")
def fuzz_stub():
    stub = KeepAliveStub()
    yield stub
    stub.close()


@given(status=st.integers(200, 599),
       body=st.one_of(st.binary(max_size=64),
                      st.builds(lambda v: json.dumps({"score": v, "content": v}).encode(),
                                st.one_of(st.none(), st.booleans(), st.integers(),
                                          st.floats(), st.text(max_size=8)))))
@settings(max_examples=100, deadline=None)
@pytest.mark.parametrize("make_client", [RatingClient, RewardClient])
def test_any_reply_gives_a_float_or_scoring_failed(fuzz_stub, make_client, status, body):
    fuzz_stub.handler = lambda payload: (status, body)
    client = make_client(fuzz_stub.url, retries=1, timeout=5.0)
    try:
        assert isinstance(client.score(_triplet()), float)
    except ScoringFailed:
        pass
    finally:
        client.close()


# -- corpus-level scoring -------------------------------------------------

class CountingProvider:
    """Duck-typed provider recording every call, also as (provider, id) in
    ``log``, which providers may share."""

    def __init__(self, value=1.0, log=None):
        self.value = value
        self.calls = []
        self.log = [] if log is None else log

    def score(self, triplet):
        self.calls.append(triplet.id)
        self.log.append((self, triplet.id))
        return self.value


def _full_cache(manifest):
    cache = ScoreCache()
    for t in manifest:
        cache[t.id] = ScoreRecord(clip=0.1, length=2, reward=0.5, gpt=40.0)
    return cache


def test_score_corpus_cache_only_passthrough():
    manifest = make_manifest(3)
    features = make_features(manifest)
    cache = _full_cache(manifest)
    before = {k: ScoreRecord(**vars(v)) for k, v in cache.items()}
    out = score_corpus(manifest, features, cache, None, None)
    assert out is cache
    assert cache == before


def test_score_corpus_fills_from_stubs():
    manifest = make_manifest(3)
    features = make_features(manifest)
    cache = ScoreCache()
    gpt, reward = CountingProvider(60.0), CountingProvider(-0.5)
    score_corpus(manifest, features, cache, gpt, reward)
    for i, t in enumerate(manifest):
        rec = cache[t.id]
        assert rec.missing() is None
        assert rec.gpt == 60.0 and rec.reward == -0.5
        assert rec.length == length_score(t.response)
        assert rec.clip == clip_score(features["image"][i], features["text_clip"][i])


def test_score_corpus_cache_only_missing_gpt():
    manifest = make_manifest(3)
    features = make_features(manifest)
    cache = _full_cache(manifest)
    cache[manifest[1].id].gpt = None
    with pytest.raises(MissingScore) as err:
        score_corpus(manifest, features, cache, None, None)
    assert err.value.sample_id == manifest[1].id
    assert err.value.indicator == "gpt"


def test_score_corpus_idempotent_zero_calls_on_rerun():
    manifest = make_manifest(5)
    features = make_features(manifest)
    cache = ScoreCache()
    gpt, reward = CountingProvider(10.0), CountingProvider(0.0)
    score_corpus(manifest, features, cache, gpt, reward)
    assert sorted(gpt.calls) == sorted(t.id for t in manifest)
    gpt.calls.clear()
    reward.calls.clear()
    score_corpus(manifest, features, cache, gpt, reward)
    assert gpt.calls == [] and reward.calls == []


def test_score_corpus_one_worker_calls_missing_slots_in_manifest_order():
    manifest = make_manifest(4)
    features = make_features(manifest)
    cache = _full_cache(manifest)
    cache[manifest[0].id].reward = None
    cache[manifest[1].id].gpt = None
    del cache[manifest[3].id]
    log = []
    gpt, reward = CountingProvider(70.0, log), CountingProvider(0.5, log)
    recorders = ThreadRecorder(gpt), ThreadRecorder(reward)
    score_corpus(manifest, features, cache, *recorders)
    ids = [t.id for t in manifest]
    assert log == [(reward, ids[0]), (gpt, ids[1]), (reward, ids[3]), (gpt, ids[3])]
    assert all(r.threads == {threading.get_ident()} for r in recorders)
    assert cache[ids[3]].missing() is None


def test_score_corpus_parallel_scores_each_id_once():
    manifest = make_manifest(20)
    features = make_features(manifest)
    cache = ScoreCache()
    gpt, reward = CountingProvider(50.0), CountingProvider(1.0)
    score_corpus(manifest, features, cache, gpt, reward, workers=4)
    assert sorted(gpt.calls) == sorted(t.id for t in manifest)
    assert sorted(reward.calls) == sorted(t.id for t in manifest)
    assert all(cache[t.id].missing() is None for t in manifest)


class ThreadRecorder:
    """Passes calls to a client, noting which threads made them."""

    def __init__(self, client):
        self.client = client
        self.threads = set()

    def score(self, triplet):
        self.threads.add(threading.get_ident())
        return self.client.score(triplet)


def test_score_corpus_workers_keep_one_connection_per_thread():
    manifest = make_manifest(40)
    features = make_features(manifest)
    reward_stub, rating_stub = KeepAliveStub(), KeepAliveStub()
    reward_stub.handler = lambda payload: {"score": len(payload["answer"]) / 4}
    rating_stub.handler = lambda payload: {"content": str(len(payload["system"]) % 97)}
    reward = ThreadRecorder(RewardClient(reward_stub.url, retries=1))
    rating = ThreadRecorder(RatingClient(rating_stub.url, retries=1))
    cache = ScoreCache()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # more thread switches inside each call
    try:
        score_corpus(manifest, features, cache, rating, reward, workers=4)
    finally:
        sys.setswitchinterval(interval)
        reward.client.close()
        rating.client.close()
        reward_stub.close()
        rating_stub.close()
    assert 1 <= len(reward.threads) <= 4
    assert reward_stub.connections == len(reward.threads)
    assert rating_stub.connections == len(rating.threads)
    assert len(reward_stub.received) == len(rating_stub.received) == len(manifest)
    template = default_prompt_template()
    for t in manifest:
        system, _ = render_gpt_prompt(template, t.instruction, t.response)
        assert cache[t.id].reward == len(t.response) / 4
        assert cache[t.id].gpt == len(system) % 97


def test_instruction_does_not_leak_into_local_indicators():
    manifest = make_manifest(4)
    features = make_features(manifest)
    altered = [
        Triplet(t.id, t.image_ref, "completely different ask", t.response)
        for t in manifest
    ]
    c1, c2 = ScoreCache(), ScoreCache()
    score_corpus(manifest, features, c1, CountingProvider(5.0), CountingProvider(0.0))
    score_corpus(altered, features, c2, CountingProvider(5.0), CountingProvider(0.0))
    for t in manifest:
        assert c1[t.id].clip == c2[t.id].clip
        assert c1[t.id].length == c2[t.id].length
