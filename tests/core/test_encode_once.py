"""A fit keys each plain-``str`` column once, on its working copy.

The agenda profiles a low-cardinality string column from the working
frame's ``Series.encoding()``, and the dummies, group-by and ``map`` ops
reuse that cached encoding.  The caller's Series never cache one, so a
second fit of the same frame pays for its encodings again.
"""

import pytest

from repro.core import SmartFeat
from repro.dataframe import kernels
from repro.datasets.synth import make_synthetic_bundle
from repro.fm import SimulatedFM


@pytest.mark.parametrize("rows", [2000, 20000])
def test_each_plain_str_column_is_encoded_once_per_fit(monkeypatch, rows):
    bundle = make_synthetic_bundle(rows, seed=0)
    frame = bundle["frame"]
    plain_str = [
        name for name in frame.columns
        if frame[name].dtype == object and set(map(type, frame[name].tolist())) == {str}
    ]
    assert len(plain_str) == 2  # City and Segment
    encoded: list[list] = []
    real = kernels.dictionary_encode

    def counting(values, *known):
        encoded.append(values[:8].tolist())
        return real(values, *known)

    monkeypatch.setattr(kernels, "dictionary_encode", counting)
    for _ in range(2):
        encoded.clear()
        result = SmartFeat(SimulatedFM(seed=0)).fit_transform(
            frame, bundle["target"], descriptions=bundle["descriptions"], title=bundle["title"]
        )
        assert result.new_features
        assert sorted(encoded) == sorted(frame[name].values[:8].tolist() for name in plain_str)
        for name in frame.columns:
            assert frame[name]._encoding_cache is None, name
