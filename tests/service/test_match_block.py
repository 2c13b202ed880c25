"""Recorded embeddings travel as one ``(k, n)`` block — pinned here
against the per-match code the block replaced.

The oracles live in this file on purpose: ``oracle_remap`` is the
per-match ``CanonicalForm.to_original`` loop ``MatchService.submit``
used to run, ``oracle_body`` the per-int ``[[int(v) for v in m] ...]``
encoder ``MatchResponse.to_dict`` used to run.  The block path must be
indistinguishable from them: equal tuples of Python ``int``s out of
``.matches``, byte-equal JSON on the wire, on every execution path and
whichever frames the engine expands in bulk.  The wire is printed by
``MatchBlock.to_json``'s digit-table kernel, held here to
``json.dumps`` over the whole int64 range.
"""

import http.client
import json

import numpy as np
import pytest
from frontier_modes import MODES, frontier_mode
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from recursive_oracle import RecursiveOracle

from repro import Matcher
from repro.errors import ReproError
from repro.graphs import Graph, erdos_renyi, extract_query, relabel_graph
from repro.graphs.canonical import CanonicalForm, canonical_form
from repro.matching import Enumerator, GQLFilter, MatchingContext, RIOrderer
from repro.matching.block import MatchBlock
from repro.server import BackgroundServer
from repro.service import MatchRequest, MatchResponse, MatchService, SchedulerConfig


def oracle_remap(matches, mapping):
    """What ``submit`` did per match before the column gather."""
    cform = CanonicalForm(graph=None, order=(), mapping=tuple(mapping), fingerprint="")
    return tuple(cform.to_original(m) for m in matches)


def oracle_body(response: MatchResponse) -> bytes:
    """The HTTP/JSONL body with the per-int encoder ``to_dict`` had."""
    payload = response.to_dict()
    payload["matches"] = [[int(v) for v in m] for m in response.matches]
    return json.dumps(payload, sort_keys=True).encode("utf-8")


def assert_plain_ints(matches):
    assert all(type(m) is tuple for m in matches)
    assert all(type(v) is int for m in matches for v in m)


# ----------------------------------------------------------------------
# The block itself, against the per-match oracle
# ----------------------------------------------------------------------
@st.composite
def blocks_and_mappings(draw):
    n = draw(st.integers(0, 6))
    # No rows of no columns beyond the empty query's single embedding:
    # that is the only (k, 0) block a search can produce.
    k = draw(st.integers(0, 8)) if n else draw(st.integers(0, 1))
    image = st.integers(0, 2**40)
    rows = tuple(
        tuple(draw(st.lists(image, min_size=n, max_size=n))) for _ in range(k)
    )
    mapping = tuple(draw(st.permutations(range(n))))
    return rows, mapping


@settings(max_examples=200, deadline=None)
@given(blocks_and_mappings())
def test_block_reads_remaps_and_encodes_like_the_per_match_code(case):
    rows, mapping = case
    block = MatchBlock(rows)
    # Reading behaviour of the tuple of tuples it replaced.
    assert block == rows and rows == block and not block != rows
    assert len(block) == len(rows) and tuple(block) == rows
    assert [block[i] for i in range(len(rows))] == list(rows)
    assert hash(block) == hash(rows)
    assert block[1:] == rows[1:] and block[:1] == MatchBlock(rows[:1])
    assert_plain_ints(block)
    # One gather == to_original per match.
    remapped = block.gather(mapping)
    assert remapped == oracle_remap(rows, mapping)
    assert_plain_ints(remapped)
    # One tolist() == the per-int loop, down to the bytes.
    old = [[int(v) for v in m] for m in oracle_remap(rows, mapping)]
    assert remapped.tolist() == old
    assert json.dumps(remapped.tolist()) == json.dumps(old)
    assert all(type(v) is int for m in remapped.tolist() for v in m)
    # Stored as the one array, from whichever spelling it was built.
    assert block.array.dtype == np.int64 and block.array.ndim == 2
    assert MatchBlock(list(map(list, rows))) == block
    assert MatchBlock(block) is block
    assert MatchBlock(block.array) == block


def test_edge_shapes_stay_exactly_as_they_were():
    nothing = MatchBlock(())
    assert nothing == () and len(nothing) == 0 and nothing.tolist() == []
    assert nothing.gather((2, 0, 1)) == ()  # no rows: nothing to re-index
    assert MatchBlock(np.empty((0, 5), dtype=np.int64)) == ()
    empty_query = MatchBlock(((),))
    assert empty_query == ((),) and empty_query.tolist() == [[]]
    assert empty_query.gather(()) == ((),)
    single = MatchBlock(((7,), (9,)))
    assert single.gather((0,)) == ((7,), (9,))
    assert single != ((7,),) and single != MatchBlock(((7,), (8,)))
    assert repr(single) == "((7,), (9,))"


@pytest.mark.parametrize(
    "bad", [[[1, 2], [3]], [1, 2], [[[1]]], [["x"]], [[None]], [[2**70]]]
)
def test_a_block_is_a_rectangle_of_integers(bad):
    with pytest.raises((ValueError, TypeError, OverflowError)):
        MatchBlock(bad)
    payload = MatchResponse.failure(MatchRequest("d", Graph([0], [])), "x").to_dict()
    payload["matches"] = bad
    with pytest.raises(ReproError, match="malformed match-response"):
        MatchResponse.from_dict(payload)


@pytest.mark.parametrize(
    "bad",
    [
        [[0.9, 1]],
        [[0.9, 1.7]],
        [["1", "2"]],
        [[True, False]],
        [[None, 1]],
        np.array([[1.0, 2.0]]),
        np.array([[True]]),
        np.array([["3"]]),
    ],
    ids=["float", "floats", "strings", "bools", "none", "f8", "bool_", "str_"],
)
def test_elements_that_are_not_integers_are_a_type_error(bad):
    with pytest.raises(TypeError, match="must be integers"):
        MatchBlock(bad)
    payload = MatchResponse.failure(MatchRequest("d", Graph([0], [])), "x").to_dict()
    payload["matches"] = bad.tolist() if isinstance(bad, np.ndarray) else bad
    with pytest.raises(ReproError, match="must be integers"):
        MatchResponse.from_dict(payload)


def test_other_integer_dtypes_convert_and_empty_blocks_have_no_dtype():
    for dtype in (np.int8, np.int32, np.uint16, np.uint64):
        block = MatchBlock(np.array([[1, 2], [3, 4]], dtype=dtype))
        assert block.array.dtype == np.int64 and block == ((1, 2), (3, 4))
    with pytest.raises(OverflowError):
        MatchBlock(np.array([[2**63]], dtype=np.uint64))
    # Rows of numpy integers are integers too.
    assert MatchBlock([np.arange(2), np.arange(2, 4)]) == ((0, 1), (2, 3))
    # Nothing to coerce: numpy reads an empty array as float64.
    assert MatchBlock(np.empty((0, 3))) == () and MatchBlock([[]]) == ((),)


def test_blocks_are_read_only():
    block = MatchBlock([(1, 2), (3, 4)])
    for shared in (block, block[:1], block.gather((1, 0))):
        with pytest.raises(ValueError, match="read-only"):
            shared.array[0, 0] = 9
    taken_over = np.arange(6, dtype=np.int64).reshape(3, 2)
    assert MatchBlock(taken_over).array is taken_over
    with pytest.raises(ValueError, match="read-only"):
        taken_over[0, 0] = 9


# ----------------------------------------------------------------------
# The wire kernel: MatchBlock.to_json against json.dumps
# ----------------------------------------------------------------------
INT64 = np.iinfo(np.int64)
#: Either side of every digit-group width, both signs, and the extremes.
EDGES = sorted(
    {s * (10 ** (4 * g) + d) for g in (1, 2, 3, 4) for d in (-1, 0, 1) for s in (1, -1)}
    | {0, 1, -1, 9, 10, INT64.min, INT64.min + 1, INT64.max, INT64.max - 1}
)
IMAGES = st.one_of(
    st.integers(0, 9_999),
    st.integers(INT64.min, INT64.max),
    st.sampled_from(EDGES),
)


@settings(max_examples=300, deadline=None)
@given(
    arrays(np.int64, st.tuples(st.integers(0, 40), st.integers(0, 9)), elements=IMAGES),
    st.sampled_from(["whole", "rows", "reversed", "gather"]),
)
def test_to_json_prints_what_json_dumps_prints(array, view):
    if view == "rows":
        array = array[::2]
    elif view == "reversed":
        array = array[::-1, ::-1]
    elif view == "gather" and array.shape[1]:
        array = array[:, [array.shape[1] - 1, 0, 0]]
    block = MatchBlock(array)
    assert block.to_json() == json.dumps(array.tolist()).encode()


def test_to_json_on_the_edge_shapes_and_values():
    for shape in ((0, 0), (0, 4), (1, 0), (3, 0)):
        empty = np.zeros(shape, dtype=np.int64)
        assert MatchBlock(empty).to_json() == json.dumps(empty.tolist()).encode()
    assert MatchBlock(()).to_json() == b"[]" and MatchBlock([[]]).to_json() == b"[[]]"
    edges = np.array(EDGES, dtype=np.int64)
    for array in (edges[None, :], edges[:, None], edges[edges >= 0].reshape(-1, 1)):
        assert MatchBlock(array).to_json() == json.dumps(array.tolist()).encode()


def _every_field(**changes) -> MatchResponse:
    fields = dict(
        dataset="tiny", fingerprint="ab12", cache_hit=True, order=(2, 0, 1),
        num_matches=2, num_enumerations=9, timed_out=False, limit_reached=True,
        matches=((4, 7, 9), (4, 8, 10_000)), filter_time=0.25, order_time=1e-7,
        enum_time=3.0, total_time=float("inf"), tag="t", error=None,
        error_code=None, queue_time_s=0.5, attempts=2, degraded=True,
        executor="process",
    )
    fields.update(changes)
    return MatchResponse(**fields)


@pytest.mark.parametrize(
    "response",
    [
        MatchResponse.failure(MatchRequest("d", Graph([0], [])), "boom"),
        MatchResponse.failure(
            MatchRequest("d", Graph([0], []), tag="x"),
            ReproError("bad"),
        ),
        _every_field(),
        _every_field(tag=None, executor=None, matches=()),
        _every_field(error="partial", error_code="timeout", matches=((),)),
        _every_field(tag="naïve — 東京 \u2028"),
        _every_field(tag='"matches": []', dataset='"matches": [[1]], "z": ['),
        _every_field(dataset="matches", fingerprint="\"matches\""),
    ],
    ids=[
        "failure", "failure-tagged", "every-key", "no-optional-keys",
        "error-and-code", "non-ascii-tag", "matches-text-in-tag", "quoted-key-text",
    ],
)
def test_response_to_json_is_json_dumps_of_to_dict(response):
    body = json.dumps(response.to_dict(), sort_keys=True).encode("utf-8")
    assert response.to_json() == body
    assert MatchResponse.from_dict(json.loads(response.to_json())) == response


# ----------------------------------------------------------------------
# Both strategies store equal blocks (tests/recursive_oracle.py instances)
# ----------------------------------------------------------------------
def _random_instance(seed: int):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(10, 40))
    m = int(rng.integers(n, 3 * n))
    data = erdos_renyi(n, m, int(rng.integers(1, 4)), seed=seed)
    query = extract_query(data, int(rng.integers(2, 8)), rng)
    candidates = GQLFilter().filter(query, data)
    order = RIOrderer().order(query, data, candidates)
    return MatchingContext(query, data, candidates), order


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 100_000), st.sampled_from([None, 1, 2, 3, 5, 17, 500]))
def test_strategies_record_equal_blocks(seed, limit):
    context, order = _random_instance(seed)
    n = context.query.num_vertices
    oracle = RecursiveOracle(match_limit=limit, record_matches=True)
    expected = oracle.run_context(context, order)
    # Plain per-match tuples of the oracle's embeddings.
    tuples = tuple(map(tuple, expected.matches.array.tolist()))
    blocks = []
    for mode in MODES:
        with frontier_mode(mode):
            result = Enumerator(match_limit=limit, record_matches=True).run_context(
                context, order
            )
            counted = Enumerator(match_limit=limit).run_context(context, order)
        block = result.matches
        assert isinstance(block, MatchBlock)
        assert block == tuples and block == expected.matches
        assert_plain_ints(block)
        assert block.array.dtype == np.int64
        assert block.array.shape == (result.num_matches, n)
        assert result.num_enumerations == expected.num_enumerations
        assert result.limit_reached == expected.limit_reached
        with pytest.raises(ValueError, match="read-only"):
            block.array[:] = 0
        assert counted.matches == ()
        blocks.append(block)
    assert all(np.array_equal(blocks[0].array, block.array) for block in blocks)


def test_match_limit_cutting_inside_a_leaf_chunk():
    # Taken in bulk, the root frame's one leaf chunk holds every match of
    # this instance, so any limit below the total cuts mid-chunk.
    data = erdos_renyi(30, 120, 1, seed=4)
    query = Graph([0, 0, 0], [(0, 1), (1, 2)])
    candidates = GQLFilter().filter(query, data)
    context = MatchingContext(query, data, candidates)
    order = RIOrderer().order(query, data, candidates)
    full = Enumerator(match_limit=None, record_matches=True).run_context(context, order)
    assert full.num_matches > 50
    for limit in (1, 7, full.num_matches - 1):
        cut = []
        for mode in MODES:
            with frontier_mode(mode):
                cut.append(
                    Enumerator(match_limit=limit, record_matches=True).run_context(
                        context, order
                    )
                )
        assert all(r.matches == full.matches[:limit] for r in cut)
        assert len({r.num_enumerations for r in cut}) == 1
        assert all(r.limit_reached and len(r.matches) == limit for r in cut)


# ----------------------------------------------------------------------
# submit(): every execution path, isomorphs of one query
# ----------------------------------------------------------------------
# One label: the star and cycle queries keep all their automorphisms, so
# a renumbering can be a non-identity automorphism.
DATA = erdos_renyi(40, 110, 1, seed=7)

BASE_QUERIES = {
    "extracted": extract_query(DATA, 5, np.random.default_rng(1)),
    "star": Graph([0, 0, 0, 0], [(0, 1), (0, 2), (0, 3)]),
    "cycle": Graph([0, 0, 0, 0], [(0, 1), (1, 2), (2, 3), (3, 0)]),
}


@pytest.fixture(scope="module")
def data():
    return DATA


@pytest.fixture(scope="module")
def service(data):
    service = MatchService(catalog={"tiny": data})
    yield service
    service.close()


@pytest.fixture(scope="module")
def threaded(data):
    service = MatchService(catalog={"tiny": data}, scheduler=SchedulerConfig(workers=2))
    yield service
    service.close()


def expected_matches(data, query, limit):
    """The per-match path: canonicalize, run the canonical query on a
    plain ``Matcher``, translate each embedding with ``to_original``."""
    cform = canonical_form(query)
    direct = Matcher(data, record_matches=True, match_limit=limit)
    canonical = direct.match(cform.graph).enumeration.matches
    return oracle_remap(canonical, cform.mapping)


def serve(service, request, path):
    if path == "many":
        return service.submit_many([request, request], max_workers=2)[1]
    if path == "scheduled":
        return service.submit_scheduled(request).result(timeout=120)
    return service.submit(request)


def carried_back(matches, permutation):
    """Embeddings of the renumbered query, re-indexed by the base ids."""
    return {tuple(m[new] for new in permutation) for m in matches}


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(sorted(BASE_QUERIES)),
    path=st.sampled_from(["record", "stream", "many", "scheduled"]),
    limit=st.sampled_from([None, 1, 37]),
    data_=st.data(),
)
def test_submit_returns_the_per_match_embeddings_on_every_path(
    data, service, threaded, name, path, limit, data_
):
    base = BASE_QUERIES[name]
    permutation = data_.draw(st.permutations(range(base.num_vertices)))
    query = relabel_graph(base, permutation)
    request = MatchRequest("tiny", query, match_limit=limit, record_matches=True)
    if path == "stream":
        # A legacy body: ``"stream": true`` in place of ``record_matches``
        # reads as the same request.
        payload = request.to_dict()
        del payload["record_matches"]
        legacy = MatchRequest.from_dict(dict(payload, stream=True))
        assert legacy == request
        request = legacy
    response = serve(threaded if path == "scheduled" else service, request, path)
    assert response.ok
    assert isinstance(response.matches, MatchBlock)
    assert response.matches == expected_matches(data, query, limit)
    assert len(response.matches) == response.num_matches
    assert_plain_ints(response.matches)
    if limit is None:
        # Equal to the base query's embeddings under the permutation.
        plain = service.submit(
            MatchRequest("tiny", base, match_limit=None, record_matches=True)
        )
        assert carried_back(response.matches, permutation) == set(plain.matches)
        assert response.num_matches == plain.num_matches
    # The wire: byte-equal to the per-int encoder, and it round-trips.
    body = json.dumps(response.to_dict(), sort_keys=True).encode("utf-8")
    assert body == oracle_body(response) == response.to_json()
    wire = response.to_dict()["matches"]
    assert type(wire) is list and all(type(m) is list for m in wire)
    assert all(type(v) is int for m in wire for v in m)
    assert MatchResponse.from_dict(json.loads(body)) == response
    assert hash(MatchResponse.from_dict(response.to_dict())) == hash(response)


def test_process_executor_returns_the_same_block(data, service):
    query = relabel_graph(BASE_QUERIES["star"], (2, 0, 3, 1))
    request = MatchRequest("tiny", query, match_limit=None, record_matches=True)
    pooled = MatchService(
        catalog={"tiny": data},
        scheduler=SchedulerConfig(workers=1, executor="process", process_workers=1),
    )
    try:
        response = pooled.submit_scheduled(request).result(timeout=120)
    finally:
        pooled.close()
    assert response.ok and response.executor == "process"
    assert response.matches == expected_matches(data, query, None)
    assert response.matches == service.submit(request).matches
    assert_plain_ints(response.matches)
    assert response.to_json() == oracle_body(response)


def test_budget_exceeded_fallback_keeps_the_identity_mapping(data, monkeypatch):
    from repro.errors import CanonicalizationError
    from repro.service import service as service_module

    def refuse(query):
        raise CanonicalizationError("budget")

    monkeypatch.setattr(service_module, "canonical_form", refuse)
    query = relabel_graph(BASE_QUERIES["star"], (1, 0, 2, 3))
    uncached = MatchService(catalog={"tiny": data})
    response = uncached.submit(MatchRequest("tiny", query, record_matches=True))
    direct = Matcher(data, record_matches=True).match(query)
    assert response.fingerprint == "" and not response.cache_hit
    assert response.matches == tuple(direct.enumeration.matches)


def test_empty_query_and_unrecorded_requests(service):
    empty = Graph([], [])
    recorded = service.submit(MatchRequest("tiny", empty, record_matches=True))
    assert recorded.matches == ((),) and recorded.to_dict()["matches"] == [[]]
    counted = service.submit(MatchRequest("tiny", BASE_QUERIES["star"]))
    assert counted.matches == () and counted.to_dict()["matches"] == []
    assert counted.num_matches > 0
    for response in (recorded, counted):
        assert response.to_json() == oracle_body(response)


def test_http_body_is_byte_equal_to_the_per_int_encoder(data):
    assert_http_body_is_the_oracle_body(data, scheduler=None)


def test_scheduled_http_body_is_byte_equal_to_the_per_int_encoder(data):
    assert_http_body_is_the_oracle_body(data, scheduler=SchedulerConfig(workers=1))


def assert_http_body_is_the_oracle_body(data, scheduler):
    query = relabel_graph(BASE_QUERIES["cycle"], (3, 1, 0, 2))
    request = MatchRequest("tiny", query, match_limit=50, record_matches=True)
    hosted = MatchService(catalog={"tiny": data}, scheduler=scheduler)
    try:
        with BackgroundServer(hosted) as background:
            host, port = background.address
            conn = http.client.HTTPConnection(host, port, timeout=30)
            try:
                conn.request("POST", "/match", body=json.dumps(request.to_dict()))
                reply = conn.getresponse()
                body = reply.read()
            finally:
                conn.close()
    finally:
        hosted.close()
    assert reply.status == 200
    response = MatchResponse.from_dict(json.loads(body))
    assert response.num_matches == 50
    assert response.matches == expected_matches(data, query, 50)
    assert body == oracle_body(response)
    assert (response.executor is not None) is (scheduler is not None)
