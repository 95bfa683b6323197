"""Source model: construction, marginals, posterior, JSON loading."""

import json

import numpy as np
import pytest

from irdf import (
    Alphabet,
    JointSource,
    NegativeProbability,
    NonStochastic,
    load_source,
)


def bsc_source(beta):
    return JointSource.from_prior_and_channel(
        (0.5, 0.5), [[1 - beta, beta], [beta, 1 - beta]]
    )


def erasure_source(delta):
    return JointSource.from_prior_and_channel(
        (0.5, 0.5), [[1 - delta, delta, 0.0], [0.0, delta, 1 - delta]]
    )


class TestAlphabet:
    def test_basic(self):
        a = Alphabet(("0", "1", "e"))
        assert a.size == 3
        assert a.index("e") == 2

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            Alphabet(("0", "0"))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Alphabet(())


class TestFromPriorAndChannel:
    def test_bsc_joint(self):
        # direct multiplication: 0.5 * [[0.85, 0.15], [0.15, 0.85]]
        src = bsc_source(0.15)
        np.testing.assert_allclose(
            src.joint, [[0.425, 0.075], [0.075, 0.425]], atol=1e-15
        )

    def test_degenerate_prior(self):
        src = JointSource.from_prior_and_channel((1.0, 0.0), np.eye(2))
        np.testing.assert_allclose(src.joint, [[1, 0], [0, 0]], atol=0)

    def test_erasure_joint(self):
        # direct multiplication: 0.5 * [[0.6, 0.4, 0], [0, 0.4, 0.6]]
        src = erasure_source(0.4)
        np.testing.assert_allclose(
            src.joint, [[0.3, 0.2, 0.0], [0.0, 0.2, 0.3]], atol=1e-15
        )

    def test_nonstochastic_prior(self):
        with pytest.raises(NonStochastic):
            JointSource.from_prior_and_channel((0.6, 0.6), np.eye(2))

    def test_nonstochastic_channel_row(self):
        with pytest.raises(NonStochastic):
            JointSource.from_prior_and_channel((0.5, 0.5), [[0.9, 0.2], [0.5, 0.5]])

    def test_negative_entry(self):
        with pytest.raises(NegativeProbability):
            JointSource.from_prior_and_channel((1.1, -0.1), np.eye(2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_prior_rejected(self, bad):
        # NaN compares false with both the sign and the sum checks
        with pytest.raises(ValueError, match="prior has a non-finite entry"):
            JointSource.from_prior_and_channel((bad, 0.5), np.eye(2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_channel_rejected(self, bad):
        with pytest.raises(ValueError, match="channel has a non-finite entry"):
            JointSource.from_prior_and_channel((0.5, 0.5), [[bad, 0.5], [0.5, 0.5]])

    def test_small_slack_renormalized(self):
        src = JointSource.from_prior_and_channel((0.5 + 4e-10, 0.5), np.eye(2))
        assert abs(src.joint.sum() - 1.0) < 1e-12


class TestFromJoint:
    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_entry_rejected(self, bad):
        # a NaN entry gave a source whose marginals and posterior were all NaN
        with pytest.raises(ValueError, match="joint pmf has a non-finite entry"):
            JointSource.from_joint([[bad, 0.5], [0.25, 0.25]])


class TestPosterior:
    def test_bsc_posterior(self):
        for beta in (0.0, 0.1, 0.3):
            src = bsc_source(beta)
            np.testing.assert_allclose(
                src.posterior, [[1 - beta, beta], [beta, 1 - beta]], atol=1e-15
            )

    def test_erasure_posterior(self):
        src = erasure_source(0.4)
        np.testing.assert_allclose(
            src.posterior, [[1.0, 0.5, 0.0], [0.0, 0.5, 1.0]], atol=1e-15
        )

    def test_deterministic_observation(self):
        src = JointSource.from_prior_and_channel((0.3, 0.7), np.eye(2))
        np.testing.assert_allclose(src.posterior, np.eye(2), atol=0)

    def test_unused_columns_flagged_not_fabricated(self):
        src = erasure_source(0.0)
        assert src.used_z.tolist() == [True, False, True]
        np.testing.assert_array_equal(src.posterior[:, 1], [0.0, 0.0])

    def test_used_columns_sum_to_one(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            joint = rng.random((3, 4))
            joint[:, rng.integers(0, 4)] = 0.0
            src = JointSource.from_joint(joint / joint.sum())
            sums = src.posterior.sum(axis=0)[src.used_z]
            np.testing.assert_allclose(sums, 1.0, atol=1e-12)


class TestMarginals:
    def test_bsc_z_marginal(self):
        np.testing.assert_allclose(bsc_source(0.15).z_marginal, [0.5, 0.5], atol=1e-15)

    def test_erasure_z_marginal(self):
        np.testing.assert_allclose(
            erasure_source(0.4).z_marginal, [0.3, 0.4, 0.3], atol=1e-15
        )

    def test_degenerate_z_marginal(self):
        src = JointSource.from_prior_and_channel((1.0, 0.0), np.eye(2))
        np.testing.assert_allclose(src.z_marginal, [1.0, 0.0], atol=0)

    def test_prior_recovered(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            prior = rng.dirichlet(np.ones(3))
            channel = rng.dirichlet(np.ones(4), size=3)
            src = JointSource.from_prior_and_channel(prior, channel)
            np.testing.assert_allclose(src.x_marginal, prior, atol=1e-12)

    def test_joint_reconstruction(self):
        rng = np.random.default_rng(6)
        for _ in range(25):
            joint = rng.random((3, 3))
            src = JointSource.from_joint(joint / joint.sum())
            rebuilt = src.posterior * src.z_marginal[None, :]
            np.testing.assert_allclose(rebuilt, src.joint, atol=1e-15)


class TestLoadSource:
    def test_prior_channel_file(self, tmp_path):
        spec = {
            "x_alphabet": ["0", "1"],
            "z_alphabet": ["0", "1"],
            "prior": [0.5, 0.5],
            "channel": [[0.85, 0.15], [0.15, 0.85]],
        }
        path = tmp_path / "src.json"
        path.write_text(json.dumps(spec))
        src = load_source(path)
        np.testing.assert_allclose(src.joint, [[0.425, 0.075], [0.075, 0.425]])
        assert src.z_alphabet.labels == ("0", "1")

    def test_joint_dict(self):
        src = load_source({"joint": [[0.25, 0.25], [0.25, 0.25]]})
        assert src.x_alphabet.size == 2

    def test_both_forms_rejected(self):
        with pytest.raises(ValueError):
            load_source(
                {"joint": [[1.0]], "prior": [1.0], "channel": [[1.0]]}
            )

    def test_neither_form_rejected(self):
        with pytest.raises(ValueError):
            load_source({"x_alphabet": ["0"]})
