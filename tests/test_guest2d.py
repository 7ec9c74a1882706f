"""The 2-D guest: GuestND at D = 2 (reference shapes, determinism, digest seeds)."""

import numpy as np

from repro.machine.guestnd import GuestND, StencilCounterND, nd_digest_seed


def test_reference_shapes():
    ref = GuestND((5, 5), StencilCounterND()).run_reference(3)
    assert ref.values.shape == (4, 7, 7)
    assert ref.update_digests.shape == (5, 5)
    assert ref.state_digests.shape == (5, 5)


def test_deterministic():
    g = GuestND((6, 6), StencilCounterND())
    a = g.run_reference(4)
    b = g.run_reference(4)
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.update_digests, b.update_digests)


def test_db2_digest_seed_matches_reference_seed():
    ref = GuestND((3, 3), StencilCounterND()).run_reference(0)
    # With zero steps the digests are the seeds.
    for r in range(1, 4):
        for c in range(1, 4):
            assert int(ref.update_digests[r - 1, c - 1]) == nd_digest_seed((r, c))
