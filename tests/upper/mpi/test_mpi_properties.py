"""Property-based MPI tests: payload integrity and reduction correctness."""

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from tests.golden.regen import mpi_world
from tests.upper.mpi import run_spmd

SIM_SETTINGS = settings(max_examples=10, deadline=None,
                        suppress_health_check=[HealthCheck.too_slow])


@SIM_SETTINGS
@given(payloads=st.lists(st.binary(min_size=0, max_size=3000),
                         min_size=1, max_size=6),
       fm_version=st.sampled_from([1, 2]))
def test_any_payload_sequence_roundtrips_in_order(payloads, fm_version):
    cluster, comms = mpi_world(f"fm{fm_version}")
    received = []

    def rank0(node):
        for payload in payloads:
            yield from comms[0].send(payload, 1, tag=1)

    def rank1(node):
        for _ in payloads:
            data, _ = yield from comms[1].recv(0, 1, max_bytes=4000)
            received.append(data)

    cluster.run([rank0, rank1])
    assert received == payloads


@SIM_SETTINGS
@given(n_ranks=st.integers(min_value=2, max_value=6),
       length=st.integers(min_value=1, max_value=32),
       seed=st.integers(min_value=0, max_value=2**31 - 1),
       op_name=st.sampled_from(["add", "maximum", "minimum"]))
def test_allreduce_matches_numpy_reference(n_ranks, length, seed, op_name):
    op = getattr(np, op_name)
    reference_op = {"add": np.sum, "maximum": np.max, "minimum": np.min}[op_name]
    rng = np.random.default_rng(seed)
    contributions = rng.normal(size=(n_ranks, length))

    def body(rank, comm, node):
        return comm.allreduce(contributions[rank], op)

    results = run_spmd(n_ranks, body)
    expected = reference_op(contributions, axis=0)
    for rank in range(n_ranks):
        assert np.allclose(results[rank], expected)


@SIM_SETTINGS
@given(n_ranks=st.integers(min_value=2, max_value=5),
       chunk_size=st.integers(min_value=0, max_value=500),
       seed=st.integers(min_value=0, max_value=255))
def test_alltoall_is_a_permutation(n_ranks, chunk_size, seed):
    def chunk(src, dst):
        return bytes(((src * 17 + dst * 31 + seed + i) % 256)
                     for i in range(chunk_size))

    def body(rank, comm, node):
        return comm.alltoall([chunk(rank, dest) for dest in range(n_ranks)])

    results = run_spmd(n_ranks, body)
    for rank in range(n_ranks):
        assert results[rank] == [chunk(src, rank) for src in range(n_ranks)]
