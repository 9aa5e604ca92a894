import importlib
from dataclasses import fields

import pytest

import gstrans

# single-sample and test-only helpers that the batched kernel replaced,
# wrappers around the one canonical-map table and the one stacked operator,
# the ring task's guard against rotation collisions of continuous draws,
# the second copy of the support that Graph's own CSR arrays replaced, the
# wrapper around the (K, N) array of hardened maps, and the arena of arrays
# kept across forward passes with the operator products that took an out
REMOVED = {
    "nn": ("gsl_forward", "model_forward", "cross_entropy", "backward", "_array",
           "Buffers"),
    "graph": ("laplacian", "_from_sets"),
    "evaluate": ("CanonicalTransform", "canonical_transforms", "nearest_canonical"),
    "errors": ("InsufficientDataError",),
    "transforms": ("_weighted_transpose", "_stacked_transpose", "EdgeIndex",
                   "edge_index", "HardTransforms", "matmul_into", "matmul_t_into"),
    "data": ("_has_rotation_collision",),
}


class TestPublicSurface:
    @pytest.mark.parametrize("name", gstrans.__all__)
    def test_exported_name_resolves(self, name):
        assert getattr(gstrans, name) is not None

    def test_removed_names_gone(self):
        for module_name, names in REMOVED.items():
            module = importlib.import_module(f"gstrans.{module_name}")
            for name in names:
                assert name not in gstrans.__all__
                assert not hasattr(gstrans, name)
                assert not hasattr(module, name), f"gstrans.{module_name}.{name}"
        assert [f.name for f in fields(gstrans.Graph)] == ["n", "indptr", "dst"]
        for cls in (gstrans.EdgeLogits, gstrans.SoftTransforms):
            assert "index" not in [f.name for f in fields(cls)], cls.__name__
        for cls, attrs in ((gstrans.Graph, ("adjacency", "degree", "neighbors")),
                           (gstrans.SoftTransforms, ("row", "dense"))):
            for attr in attrs:
                assert not hasattr(cls, attr), f"{cls.__name__}.{attr}"
