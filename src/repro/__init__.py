"""SMARTFEAT reproduction: feature-level foundation-model interactions.

Reproduction of *"SMARTFEAT: Efficient Feature Construction through
Feature-Level Foundation Model Interactions"* (Lin, Ding, Jagadish, Zhou —
CIDR 2024).

Layers (bottom-up):

``repro.dataframe``
    Columnar Series/DataFrame substrate (pandas-compatible subset) that the
    generated transformation functions execute against.
``repro.ml``
    Mini scikit-learn: the paper's five downstream classifiers, AUC, cross
    validation, and the Table 6 feature-selection metrics.
``repro.fm``
    Foundation-model substrate: the ``FMClient`` protocol, a deterministic
    knowledge-based :class:`~repro.fm.SimulatedFM`, and an API cost model.
``repro.core``
    SMARTFEAT itself — operator selector, function generator, validator,
    and the :class:`~repro.core.SmartFeat` pipeline.
``repro.baselines``
    Featuretools-style DFS, AutoFeat-style expansion/selection, and a
    CAAFE-style FM code-generation loop.
``repro.datasets``
    Seeded synthetic versions of the paper's eight Kaggle datasets.
``repro.eval``
    The evaluation harness regenerating every table and figure.

Quickstart
----------
>>> from repro.datasets import load_dataset
>>> from repro.fm import simulated_pair
>>> from repro.core import SmartFeat
>>> bundle = load_dataset("tennis", n_rows=400)
>>> tool = SmartFeat(*simulated_pair(seed=0), downstream_model="random_forest")
>>> result = tool.fit_transform(bundle.frame, target=bundle.target,
...                             descriptions=bundle.data_card())
>>> sorted(result.new_features)  # doctest: +SKIP
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
