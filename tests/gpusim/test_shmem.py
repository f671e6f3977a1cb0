"""Unit tests for the shared-memory arrays the SPMD rank runtime uses.

Ranks exchange data through ``multiprocessing.shared_memory`` segments:
a segment is created zeroed and named, a peer attaches it by name and
sees the same pages, and unlinking is idempotent.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.gpusim.shmem import (
    attach_shared_array,
    create_shared_array,
    shared_memory_available,
)

needs_shm = pytest.mark.skipif(
    not shared_memory_available(), reason="no shared memory on this host"
)


@needs_shm
class TestSharedNDArray:
    def test_create_zeroed_and_named(self):
        arr = create_shared_array(16, np.int64)
        try:
            assert arr.shape == (16,)
            assert not arr.any()
            assert arr.segment_name
        finally:
            arr.unlink()

    def test_attach_by_name(self):
        arr = create_shared_array(4, np.uint8)
        try:
            arr[:] = [1, 2, 3, 4]
            other = attach_shared_array(arr.segment_name, 4, np.uint8)
            np.testing.assert_array_equal(other, arr)
        finally:
            arr.unlink()

    def test_double_unlink_is_harmless(self):
        arr = create_shared_array(4, np.uint8)
        arr.unlink()
        arr.unlink()
