import importlib
from dataclasses import fields

import pytest

import gstrans

# single-sample and test-only helpers that the batched kernel replaced,
# wrappers around the one canonical-map table and the one stacked operator,
# and the ring task's guard against rotation collisions of continuous draws
REMOVED = {
    "nn": ("gsl_forward", "model_forward", "cross_entropy", "backward"),
    "graph": ("laplacian",),
    "evaluate": ("CanonicalTransform", "canonical_transforms", "nearest_canonical"),
    "errors": ("InsufficientDataError",),
    "transforms": ("_weighted_transpose", "_stacked_transpose"),
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
        assert [f.name for f in fields(gstrans.Graph)] == ["n", "neighbors"]
        for cls, attrs in ((gstrans.Graph, ("adjacency", "degree")),
                           (gstrans.SoftTransforms, ("row", "dense")),
                           (gstrans.HardTransforms, ("slice",))):
            for attr in attrs:
                assert not hasattr(cls, attr), f"{cls.__name__}.{attr}"
