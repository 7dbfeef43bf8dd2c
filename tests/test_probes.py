"""Hypothesis probes: witnesses must re-evaluate as genuine violations."""

import hashlib
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from pcpkit import (
    EmptyRegionError,
    InputError,
    PcpInstance,
    PolyMap,
    Polynomial,
    SolveConfig,
    coercivity_probe,
    enumerate_solutions,
    PcpError,
    jacobian_degeneracy_scan,
    karamardian_coercivity_probe,
    leading_min_map,
    natural_map,
    p_function_probe,
    r0_shifted_pair_probe,
    r0_test,
    random_instance,
    trial_instance,
    xref_boundedness_probe,
)

CFG = SolveConfig(starts_per_subsystem=60)
FIXTURES = ["hyperbola_pair", "unsolvable_pair", "affine_shift", "identity_pair",
            "swapped_linear", "scalar_shift"]
# sha256 of json.dumps(report.to_dict()) for the eight probe runs of
# TestReportDigests.digests, in its order (numpy 2.4, x86-64); a run that
# refuses its input digests repr(error) instead; c10-k is
# trial_instance(2, (2, 2), 0, k)
PROBE_DIGESTS = {
    "c10-0": (
        "28f23493b8ca89e936106d222703823e3a2d9855d243849b638060e55178db70",
        "9f42f8e5803545d4c8e5f4a1c20b3212afb18f94d94e242ed1c66f5cb488dab0",
        "8ae27d7bbcb89f8aec97e63b1c5008ad26b6e3a725917d476aa2f5254fc5a19e",
        "1e8fcf5b25f867a9d7da78acc7283faa77074f0a75aec51b7b834e414655febe",
        "afd579a9698a202e88505a4eb6cd0cd8fbdb5c38a924d8ec34410a87550bddbf",
        "0236fc421926f5d19d7841abfbae5fbbbe51b9b33b76e3c64247fd131a1a8b1e",
        "00c2db6ba7a3f6521a236ab2eef04c1c01e0ddc62df29988dcd767464239be9a",
        "e24554c27e53c1e0cefed095a70b66faee6b525a4c078b264c2de91ea49893e3",
    ),
    "c10-1": (
        "3d21fbe0791a018139f97f6d2dff8c2194f7f5f7fada4d815baa5ff10987d469",
        "5fa79365334222efb113f298320609141476cce22d3983095f3cc711551a6504",
        "97e3b0dbaa050fc371dd5a545318f3fd45570f69721b0c102a3a033a42385a57",
        "f74129605d9ee82adc92fd10936aac6121bb4f7b49dcd9ee92cbdd04f9b04e35",
        "0a190537166387a34dee69d3249abe3327beb5ade44009e80ad13f716d4090eb",
        "8e03cc95447e0f333df2ec61771a9135143b64523647f60ef6350d61c9766039",
        "7cfd9499bdcf307ae76d0b3d9449aac0417ea86baeb06b2e6ddca776b10578a2",
        "441ba96dace1da813e156e64c5734a10bc045bbd2f830584af5d90c0308c191d",
    ),
    "c10-2": (
        "ba6711f53f4da6a26616a7f63e632b84386157276099510bf25a78e2c0c7b979",
        "a3ea5d8756babf786d805cf810083b58ed035ac06e4a21cf91ad41b5c7b13834",
        "1d713c4d272eeaba0602d21b53ef4fc741b3f21bf06b4184593b5fa4dcbf42d3",
        "b217525ef1a7828167c4bcf726f8b3ca8c844c5352dd58a16869199ad6057b8f",
        "05c38edf1a6162c752693d3c93d091ee468a2463231d9b141f17155ca765ee1e",
        "1aa671ce20864d4b388f1d3fc4773b18b8feb0f476869831806dc34f30e389b4",
        "5e9051c1d96cbd7233708fd2c65856d5636162cbccf10c8e330e45e2aeb7fca5",
        "cab3067a23f1afb96a36e0c7146ff8376f2d1a58ec91e1d845a7543e271633e7",
    ),
    "c10-3": (
        "5cae35eb6b6303e32b12ec9d419352fbffb32b9ebb0b84d68cad2ea7c25fe97a",
        "f6d75a10f8569386daa112b51bba2071084f8fc27ccd9b07d834b4c92a91dfbb",
        "90d5c18dc3976f74d00f36575979b5b4922bb76956a1747e6ecf6ea8360e4a56",
        "855052a7e84ff9e9d37e7d03a4190ebadfc7d290a0ea2c7a7c0f308c16efee1f",
        "b093b80662691686a789ab09209a8470dda8ba1aff1f13792f117b2957ef9197",
        "f97f883c68d009befb6217fe62a3afd5c3e1029269cdff2a98a8a8a6908bd123",
        "114403dc586f6db7c864dd2bf775284cbb1339e3e71e741aeeb2cc5c0765999d",
        "4d9b0490c9626c03b89ec9cfcf51762782f9a9016f193c5ddd67bf53b49402c5",
    ),
    "c10-4": (
        "35e7c7d13b3083f2ea11d2630014632a9b1d8ff5c3e3af14db3a0994f28c4e42",
        "c9f581ea9c42132c1af4f3c93cf0b722299bb0a25ba869adff643615fd130da8",
        "8b73758299420916ec1dbf346e65259c8e36e72b1d74c919874d4628856a3a0e",
        "d21a136b4c1593dcff30b8c84a5bd50bd54731ac9843ffc55f61a534fc3101eb",
        "b093b80662691686a789ab09209a8470dda8ba1aff1f13792f117b2957ef9197",
        "4b4abbbe1f86f9ff094490ef860d211d5342c628bee317f9f4f655811fe05d37",
        "8aae89a1db5003e5c4eb28d66043e968f542250b094d81fd25db6ae28ee8a092",
        "4d9b0490c9626c03b89ec9cfcf51762782f9a9016f193c5ddd67bf53b49402c5",
    ),
    "c10-5": (
        "64a86ac13520abf0e8746aa863274a8430fa0c766afa73fef8f2634ff831091c",
        "ff0e8bb0e35bcf3ce076a9a03a13e75cba55f0672b6c91dd92e8d837e1df3cd5",
        "50e42d64467f1b5fbf94d0e86184c1a1e898b81ddc7b375c771c3546b6e3147d",
        "4bd114e84bec0afd58af0318d0997d69df435f3a732d58117c4c4b6f743b644c",
        "b093b80662691686a789ab09209a8470dda8ba1aff1f13792f117b2957ef9197",
        "a0908c0fa952c6944fc09f689e452456d5576ae1a645f89038126d3bb44df3e4",
        "970350bf413bf3247b7fd3c7206e745f9b89e5007f32758377fc3dfbaf94aac8",
        "4d9b0490c9626c03b89ec9cfcf51762782f9a9016f193c5ddd67bf53b49402c5",
    ),
    "c10-6": (
        "270234d572584dcd7a0d747b17baec14953c3ea986e1b836e5c954e00ed92762",
        "31c2805ad22970f34cba82e1b58a1924e4d0f61711dca6931dc33aacfc24987c",
        "c9a4d3cf6a3ba130b0c6403bfacbf8fe6337c3ef3fa4589e48cb5737bfcb6330",
        "d61ecae37b5b9a4dbd6ec828520e5110a0724091e37d56e42ee2fe0c0de8cfe4",
        "cbbe04499532e6965fa99a195fea3c9015dcc2237d43f7e6f2f71099fcd3a2b1",
        "4d96e6c2794e8d9efe1797774364584b7b2ea5fea29da0b8be095facfd6800ca",
        "6510f8a1a5280f54fa05511e62a0b977da7fc7ef9be6a5df95d5575eca530840",
        "6985659222f5b2bb29e224576a25ef7273d0105652781f268130414b21b47a95",
    ),
    "c10-7": (
        "f03a16fb99d70df193d9c0de9f025356aff366ec1a8785e8ac42be6a34d80da0",
        "43a793824ad2568a1e385f3e2ad0eaa5e097b4cb76997a2d4ef9a091cd2e60f8",
        "0caed561157129919098386adb82f70f93d99fb588d7da4e39ac9564b75be378",
        "027efbe9f108e2b4edd72addf1b24267bb5e72640c336cb1a6ab2f792bcc9145",
        "b093b80662691686a789ab09209a8470dda8ba1aff1f13792f117b2957ef9197",
        "38f1a1686f319a9ff0cd5966e7a03cb5b04843f50773138045db106bb0e2a156",
        "6c97a5fb6a18612639d357059c60cb9a34e3a5f872fd1a93a1695593c09ceec0",
        "4d9b0490c9626c03b89ec9cfcf51762782f9a9016f193c5ddd67bf53b49402c5",
    ),
    "c10-8": (
        "5f509c1caacfc16413cb1b706c6d4642efe3180018fe24d68aa49d0c2adbbd0a",
        "a022bc37fdce77716b50d00f53a5f1d4f620b9feb0b5c937dac1bc2277884f9c",
        "69ccc4f226a9683e283fc0a28cb6bb47694e70bfe4ab04763b79fd69ed4bfc5c",
        "00e90a8e74d453938ce2a216ec56b4d7f27dd1aca9fa764104a0cba2e667490e",
        "b093b80662691686a789ab09209a8470dda8ba1aff1f13792f117b2957ef9197",
        "de982d802e899f3401c77cf0bcf3a59949dfc606438203e6379b16ebc5523dcd",
        "b07f0c5751307c9dfdaee27bfae5fc2f5d3b0ec14c900123addb0353eabf25f3",
        "4d9b0490c9626c03b89ec9cfcf51762782f9a9016f193c5ddd67bf53b49402c5",
    ),
    "c10-9": (
        "057922439bf8a636c398d0094c27092275e44e874302e8859d3418f03cf498a7",
        "14efb0ceeec3c7b1f9a08db9dd72afbf090489ad68e14174cca277d5c1dd6391",
        "ca245e87203bc55337b406a702293e8cee2aaa690bea2a257204a2e56c6e2873",
        "061999aaac136f5a9b5f5a53c0dad55a79524f21723bcfba96a76c2c52934f59",
        "b3c4d1868877120a75fb0cb4143bcbe8258ddc06a6b0ec160bb3fd0d559b5a47",
        "5cee122744c0609766f5740aed0145cbe0178a37d7bbc900850455e982dcf87f",
        "400177e39ca09610d9dd5a336bfd2a871fc1589071d419c59e4a8b5708d920a5",
        "1e2d149f8581a5ed8b526f87c47d65e6e4f59ae15283a9ab6de486115a3eff97",
    ),
    "hyperbola_pair": (
        "a8e668818e73c44f315e1d8c750a7d8463e411aa4794630552ff1658cd0a910e",
        "8fdd62edfff71965ab8e73053d20e3234b1dd82f52aae2e32c67f9ebe7df86ad",
        "60263f84e77b45982b51a7608f9e670ad045be231cb620b0cc57d65dc5f318c0",
        "398e2ef5f945d3bd50ae35f16049fe71781a6d313ebbefaf20eef7593551aacb",
        "858c5b0694c02b9dce70c821603ceecd514bd65231b4a6f31ebe2527550b0dc3",
        "527c58abf03137fbcba374daabe62b8ecb909dad9fd581710f4503b319f6bebc",
        "6972d508743e9a847ec42268808f9da3780da5430c469aa1dcc7bf4db4b097cb",
        "88756e120ce5dd1daba23f2fbc4c271c472b4d7d370ae24fe82883b8293be73e",
    ),
    "unsolvable_pair": (
        "a8e668818e73c44f315e1d8c750a7d8463e411aa4794630552ff1658cd0a910e",
        "b89c5f4170a1010b0a409c402a9ce069a04ae806fa4a0cf578621cab841524f5",
        "60263f84e77b45982b51a7608f9e670ad045be231cb620b0cc57d65dc5f318c0",
        "d5d853c20cae2c779d61f80ed2d6cca7716a8e5d935480e98833719fbde907b7",
        "af464b58e1933bd2613afe8329c48c04f64aeb485d5c05277616a0503c572293",
        "be4340ae58af84dcf3ff1b3b8d6e244c389b27b003cca29d21b1f4b2aa536935",
        "42c126454c9c0ebe4eec8ca14e6a4febdca6c747d7d228dd347538ce77727ee9",
        "4d9b0490c9626c03b89ec9cfcf51762782f9a9016f193c5ddd67bf53b49402c5",
    ),
    "affine_shift": (
        "21dbe63e7fd6a6da5b7cfe52cd187c6ffad31db4f72bbf45b47bb74ce721dbb6",
        "1e8d55b28ead615184b98404695ec8336342b1a1215929b6884bc17f6f0a3611",
        "67ca6ba77a7a7413d2be16eb76b9e32cac4531a2adf393b1cd2e6321879f387d",
        "0f155ad6cd051b945295bf727560599df154ba0182e610fb3c8f4b44a44ae34e",
        "115535e96b02e4e155c4c33f6eb257b26c911ea451ec8dbf40e4384b66ffc743",
        "32f869a644b3a6d253d12e3d116a51d17480d40ad4183c23a7178c18877cf083",
        "ecc0e656a677d713a8eeac3c1972e9bf33c6c8853b3bc0e237a3c74d295bbe54",
        "88756e120ce5dd1daba23f2fbc4c271c472b4d7d370ae24fe82883b8293be73e",
    ),
    "identity_pair": (
        "21dbe63e7fd6a6da5b7cfe52cd187c6ffad31db4f72bbf45b47bb74ce721dbb6",
        "1e8d55b28ead615184b98404695ec8336342b1a1215929b6884bc17f6f0a3611",
        "67ca6ba77a7a7413d2be16eb76b9e32cac4531a2adf393b1cd2e6321879f387d",
        "6884d4d8ffc7b3118cb1dfa540cffad4392b3a9b837f072b45cbcaa050764a1a",
        "61fb44007da0fad907e67cd7e23f337ceef6644bf7008f64f37586d1df0fcba2",
        "94318de31276ed95af77f5f6dac54ea6d86d3873103325acd3a905029a8249b4",
        "e5f21f2b87fa18d8be374cfe21c83cb2f34215ab2294ec374222ab2cd76f2ed1",
        "88756e120ce5dd1daba23f2fbc4c271c472b4d7d370ae24fe82883b8293be73e",
    ),
    "swapped_linear": (
        "e479e885decc221c46159ff3a90f7d74efdf4643fe6a1af51db84d6d2e4161af",
        "dc17cae36e547d0d1bdaa9bc2c46d551856fc12cea9d0e924284fdb93ed76714",
        "0c7713eab7cb078e236a92b9387e91c6d52bc8ccbdc37955caecfe659052253b",
        "eb1fdaf1cdb65e41d36bf4015e87fb496456298f70f93ac8c6bc151e7fb3ebba",
        "b113a5c2a080ed3941bd624c9f7533b17d1fb1d1f5cdc7e79b4451b3677873e7",
        "b33aa239bb260f71954b33684c15984ad90da81ed0c20406a74248da66ef5fc8",
        "842ee3b1bb2777aa3504d9aadb060e6b41fb69673e09734e7d43c42d6314495f",
        "31ef6bbc6e2b4abdc96cdb100412f8907cf9928c5a7773002d0a1b13af584c68",
    ),
    "scalar_shift": (
        "18f6879422746002c014273c451b9a9ffde14d29f334842a07f4855548d557fa",
        "db27abe39b3cc15c66d8943a849b13be30566451375b163c361ab03324fcaa39",
        "dc1ccb5329967b576a8c9beed2366a528c98890587636163af00ea04dc9e2789",
        "3f2b636d9b6b102453abe008162b8af44b91ef4eb8f6e7a03e2c18d52b813371",
        "00f02d9a1b8ea2b5d2f3159e73e4574c25ddba0124ba196b40b522f9e29d386e",
        "4689ef5b6851c1381b9d36748aae0d1c6bbbaa299ab9f571de0848707cab4388",
        "fa154bc38356764c9525b9d7d726a47b46ae7badcba1d3cae83be11e96b53a4a",
        "88756e120ce5dd1daba23f2fbc4c271c472b4d7d370ae24fe82883b8293be73e",
    ),
}


class TestR0:
    def test_affine_pass(self, affine_shift):
        report = r0_test(affine_shift)
        assert report.passed
        assert report.statistics["min_residual_on_sphere"] == pytest.approx(1.0, abs=1e-6)

    def test_swapped_counterexample(self, swapped_linear):
        report = r0_test(swapped_linear)
        assert report.verdict == "counterexample"
        witness = np.array(report.witness["point"])
        # the witness re-evaluates as a near-zero of the leading min map
        assert np.linalg.norm(leading_min_map(swapped_linear, witness)) <= 1e-8
        assert np.linalg.norm(witness) == pytest.approx(1.0, abs=1e-9)

    def test_hyperbola_counterexample(self, hyperbola_pair):
        report = r0_test(hyperbola_pair)
        assert report.verdict == "counterexample"
        witness = np.array(report.witness["point"])
        assert np.linalg.norm(leading_min_map(hyperbola_pair, witness)) <= 1e-8
        # axis directions solve the leading pair; the witness sits on one
        assert min(abs(witness[0]), abs(witness[1])) <= 1e-6

    def test_scale_invariance(self, affine_shift, swapped_linear):
        for inst, expected in ((affine_shift, True), (swapped_linear, False)):
            for lam, mu in ((0.5, 3.0), (10.0, 0.1)):
                scaled = PcpInstance(
                    PolyMap(tuple(c.scaled(lam) for c in inst.f.components)),
                    PolyMap(tuple(c.scaled(mu) for c in inst.g.components)),
                )
                assert r0_test(scaled).passed is expected

    def test_zero_leading_refused(self):
        # a constant map is refused on construction, so no leading pair holds the zero map
        with pytest.raises(InputError, match="f must have degree >= 1"):
            PcpInstance(PolyMap((Polynomial.constant(1, 1.0),)), PolyMap.identity(1))

    def test_constant_component(self):
        # f = (1, x2), g = Id: both leading pairs cut the constant to 0 and build,
        # and x = (1, 0) solves both
        f = PolyMap((Polynomial.constant(2, 1.0), Polynomial(2, {(0, 1): 1.0})))
        inst = PcpInstance(f, PolyMap.identity(2))
        for componentwise in (False, True):
            report = r0_test(inst, samples=256, refine_iters=20, componentwise=componentwise)
            assert report.verdict == "counterexample"
            assert np.allclose(report.witness["point"], [1.0, 0.0])

    def test_componentwise_convention(self):
        # mixed degrees: componentwise leading keeps the affine row alive
        inst = PcpInstance(
            PolyMap(
                (
                    Polynomial(2, {(1, 0): 1.0, (0, 0): 2.0}),
                    Polynomial(2, {(0, 2): 1.0, (0, 0): -1.0}),
                )
            ),
            PolyMap.identity(2),
        )
        assert r0_test(inst, componentwise=True).passed

    def test_shifted_pair_wrapper(self, affine_shift, swapped_linear):
        assert r0_shifted_pair_probe(affine_shift).passed
        report = r0_shifted_pair_probe(swapped_linear)
        assert report.verdict == "counterexample"


def rescaled(inst, factors):
    """Each f_i scaled by factors[i] and each g_i by factors[n + i]."""
    n = inst.n
    return PcpInstance(
        PolyMap(tuple(p.scaled(c) for p, c in zip(inst.f.components, factors[:n]))),
        PolyMap(tuple(p.scaled(c) for p, c in zip(inst.g.components, factors[n:]))),
    )


# four factors cover n <= 2; rescaled uses the first 2n
POSITIVE_FACTORS = st.lists(st.floats(0.01, 100.0), min_size=4, max_size=4)


class TestR0Metamorphic:
    """Positive componentwise rescaling keeps the componentwise R0 verdict."""

    @pytest.mark.parametrize(
        "fixture",
        [
            "hyperbola_pair",
            "unsolvable_pair",
            "affine_shift",
            "identity_pair",
            pytest.param("swapped_linear", marks=pytest.mark.xfail(
                strict=True,
                raises=AssertionError,
                reason="f scaled by 100 and g by 0.01 leaves ||m|| flat at 0.01 on the "
                "positive quadrant, and the sphere search misses the 1e-4 wide basin "
                "of the zero at (1, 0)",
            )),
            "scalar_shift",
        ],
    )
    @given(factors=POSITIVE_FACTORS)
    @example(factors=[100.0, 100.0, 0.01, 0.01])
    # the fixtures build immutable instances, so sharing one across examples is safe
    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_conftest_fixtures(self, request, fixture, factors):
        inst = request.getfixturevalue(fixture)
        verdict = r0_test(inst, componentwise=True).verdict
        assert r0_test(rescaled(inst, factors), componentwise=True).verdict == verdict

    @given(seed=st.integers(0, 2**32 - 1), factors=POSITIVE_FACTORS)
    @settings(max_examples=30, deadline=None)
    def test_random_instances(self, seed, factors):
        # a sphere minimum between the two regimes could flip under scaling
        # without either verdict being wrong, so only clear cases are kept
        inst = random_instance(2, [2, 2], [2, 2], seed)
        report = r0_test(inst, componentwise=True)
        minimum = report.statistics["min_residual_on_sphere"]
        assume(minimum > 1e-4 or minimum < 1e-12)
        assert r0_test(rescaled(inst, factors), componentwise=True).verdict == report.verdict


class TestCoercivity:
    def test_identity_exact_growth(self, identity_pair):
        report = coercivity_probe(identity_pair, [1.0, 2.0, 4.0, 8.0])
        assert report.passed
        assert report.statistics["fitted_alpha"] == pytest.approx(1.0, abs=1e-6)
        assert report.statistics["fitted_c"] == pytest.approx(1.0, abs=1e-6)

    def test_affine_linear_growth(self, affine_shift):
        report = coercivity_probe(affine_shift, [10.0, 20.0, 40.0, 80.0])
        assert report.statistics["fitted_alpha"] == pytest.approx(1.0, abs=0.15)
        assert not report.statistics["no_coercive_growth"]

    def test_hyperbola_bounded_residual_flagged(self, hyperbola_pair):
        # the residual stays bounded along the hyperbola valley, so the
        # fitted growth exponent collapses toward zero and gets flagged
        report = coercivity_probe(
            hyperbola_pair, [5.0, 10.0, 20.0, 50.0], samples_per_radius=800
        )
        assert report.statistics["no_coercive_growth"]
        assert report.statistics["fitted_alpha"] <= 0.25
        assert max(report.statistics["phi_by_radius"]) <= 2.0

    def test_reported_norms_are_single_point_values(self, monkeypatch):
        # phi(R) and a witness residual equal single-point norms, although they
        # come from batch evaluations; without refinement steps the sampled
        # point itself is often the best
        from pcpkit import probes, random_instance
        from pcpkit.probes import _refine_on_sphere
        from pcpkit.residuals import natural_residual_norm, unit_sphere

        radii = [1.0, 2.0, 4.0]
        monkeypatch.setattr(probes, "COERCIVITY_REFINE_ITERS", 0)
        for seed in range(10):
            inst = random_instance(3, [2] * 3, [2] * 3, 100 + seed)
            report = coercivity_probe(inst, radii, samples_per_radius=256, seed=seed)
            rng = np.random.default_rng(seed)
            for radius, phi in zip(radii, report.statistics["phi_by_radius"]):
                points = unit_sphere(rng, 256, 3) * radius
                best = points[int(np.argmin(natural_residual_norm(inst, points)))]
                refined, _ = _refine_on_sphere(inst, best[None], np.array([radius]), 0)
                refined = refined[0]
                assert phi == min(
                    natural_residual_norm(inst, best), natural_residual_norm(inst, refined)
                )
        monkeypatch.undo()
        # f = g = (x - y, x - y) vanishes on the diagonal: a witness is reported
        diagonal = Polynomial(2, {(1, 0): 1.0, (0, 1): -1.0})
        valley = PcpInstance(PolyMap((diagonal, diagonal)), PolyMap((diagonal, diagonal)))
        report = coercivity_probe(valley, [1.0, 2.0])
        witness = report.witness
        assert report.verdict == "counterexample"
        assert witness["residual_norm"] == natural_residual_norm(
            valley, np.array(witness["point"])
        )

    def test_refined_rows_equal_single_row_calls(self):
        # rows of mixed radii descend together exactly as they do alone
        from pcpkit import random_instance
        from pcpkit.probes import _refine_on_sphere
        from pcpkit.residuals import natural_residual_norm, unit_sphere

        for n in (2, 3, 4, 5):
            inst = random_instance(n, [2] * n, [2] * n, 7 * n)
            rng = np.random.default_rng(n)
            radii = rng.choice([0.25, 1.0, 3.0, 10.0], size=12)
            starts = unit_sphere(rng, 12, n) * rng.uniform(0.5, 2.0, size=(12, 1))
            stacked, stacked_norms = _refine_on_sphere(inst, starts, radii, 40)
            for k in range(12):
                alone, alone_norms = _refine_on_sphere(
                    inst, starts[k : k + 1], radii[k : k + 1], 40
                )
                assert np.array_equal(stacked[k], alone[0])
                assert stacked_norms[k] == alone_norms[0] == natural_residual_norm(inst, alone[0])

    def test_radii_validation(self, identity_pair):
        with pytest.raises(InputError):
            coercivity_probe(identity_pair, [1.0])
        with pytest.raises(InputError):
            coercivity_probe(identity_pair, [2.0, 1.0])


class TestXrefBoundedness:
    def test_identity_pass(self, identity_pair):
        report = xref_boundedness_probe(identity_pair, [0.0, 0.0], 5.0)
        assert report.passed
        assert report.statistics["min_pairing"] == pytest.approx(25.0, rel=1e-9)

    def test_hyperbola_counterexample(self, hyperbola_pair):
        k = 5.0
        radius = float(np.hypot(k, 1.0 / k))
        # direct check at the valley point, then the sampled probe
        z = np.array([k, 1.0 / k])
        assert z @ natural_map(hyperbola_pair, z) == pytest.approx(1.0 - k)
        report = xref_boundedness_probe(hyperbola_pair, [0.0, 0.0], radius)
        assert report.verdict == "counterexample"
        witness = np.array(report.witness["point"])
        assert witness @ natural_map(hyperbola_pair, witness) <= 0.0

    def test_affine_large_sphere(self, affine_shift):
        report = xref_boundedness_probe(affine_shift, [2.0, 2.0], 100.0)
        assert report.passed

    def test_leading_variant(self, affine_shift):
        report = xref_boundedness_probe(
            affine_shift, [0.0, 0.0], 3.0, use_leading=True
        )
        assert report.passed  # leading min map is x itself

    @pytest.mark.parametrize("x_ref", [[np.nan, 0.0], [np.inf, 0.0]])
    def test_non_finite_x_ref_refused(self, affine_shift, x_ref):
        # refused as track_natural_homotopy refuses it, not paired as NaN or -inf
        with pytest.raises(InputError, match=r"x_ref must hold finite numbers, got \["):
            xref_boundedness_probe(affine_shift, x_ref, 5.0, samples=64)


class TestKaramardian:
    def test_identity_equality_case(self, identity_pair):
        assert karamardian_coercivity_probe(identity_pair, 1.0).passed

    def test_identity_too_large_constant(self, identity_pair):
        report = karamardian_coercivity_probe(identity_pair, 2.0)
        assert report.verdict == "counterexample"
        witness = np.array(report.witness["point"])
        margin = witness @ (
            natural_map(identity_pair, witness) - natural_map(identity_pair, np.zeros(2))
        ) - 2.0 * witness @ witness
        assert margin < 0.0

    def test_affine_pass(self, affine_shift):
        assert karamardian_coercivity_probe(affine_shift, 0.5).passed

    def test_bad_constant(self, identity_pair):
        with pytest.raises(InputError):
            karamardian_coercivity_probe(identity_pair, 0.0)


class TestDegeneracyScan:
    def test_regular_solutions(self, affine_shift):
        sols = enumerate_solutions(affine_shift, CFG)
        report = jacobian_degeneracy_scan(sols)
        assert report.passed
        assert report.statistics["min_abs_det_by_solution"] == [pytest.approx(1.0)]

    def test_hyperbola_regular(self, hyperbola_pair):
        sols = enumerate_solutions(hyperbola_pair, CFG)
        report = jacobian_degeneracy_scan(sols)
        assert report.passed  # |det| = 1 at (1, 1)

    def test_flags_rank_drop(self):
        inst = PcpInstance(
            PolyMap.identity(2),
            PolyMap(
                (
                    Polynomial(2, {(2, 0): 1.0}),
                    Polynomial(2, {(0, 1): 1.0}),
                )
            ),
        )
        sols = enumerate_solutions(inst, CFG)
        assert len(sols) == 1
        report = jacobian_degeneracy_scan(sols)
        assert report.verdict == "counterexample"
        assert report.witness["flagged"][0]["min_abs_det_jac"] <= 1e-8


class TestPFunction:
    def test_identity_pass(self, identity_pair):
        region = [[-1.0, 1.0], [-1.0, 1.0]]
        assert p_function_probe(identity_pair, region, pairs=2000).passed

    def test_unsolvable_pair_is_p_function(self, unsolvable_pair):
        region = [[0.0, 10.0], [0.0, 10.0]]
        report = p_function_probe(unsolvable_pair, region, pairs=10_000)
        assert report.passed

    def test_anticorrelated_counterexample(self):
        # f = Id, g = 10 - x: every product is -(x_i - y_i)^2 <= 0
        inst = PcpInstance(
            PolyMap.identity(2),
            PolyMap(
                (
                    Polynomial(2, {(1, 0): -1.0, (0, 0): 10.0}),
                    Polynomial(2, {(0, 1): -1.0, (0, 0): 10.0}),
                )
            ),
        )
        report = p_function_probe(inst, [[-2.0, 12.0], [-2.0, 12.0]], pairs=50)
        assert report.verdict == "counterexample"
        x = np.array(report.witness["x"])
        y = np.array(report.witness["y"])
        products = (inst.f.evaluate(x) - inst.f.evaluate(y)) * (
            inst.g.evaluate(x) - inst.g.evaluate(y)
        )
        assert np.max(products) <= 1e-9

    def test_degenerate_feasible_set_errors(self):
        # f = Id, g = -Id: the feasible set is the origin alone, so the
        # sampler cannot produce distinct pairs and reports the region empty
        inst = PcpInstance(
            PolyMap.identity(2),
            PolyMap(
                (
                    Polynomial(2, {(1, 0): -1.0}),
                    Polynomial(2, {(0, 1): -1.0}),
                )
            ),
        )
        with pytest.raises(EmptyRegionError):
            p_function_probe(inst, [[-1.0, 1.0], [-1.0, 1.0]], pairs=10)



def refuse_sampling(*args, **kwargs):
    raise AssertionError("sampled before refusing the settings")


class TestSettingsRefused:
    """A non-finite or out-of-range setting is refused before any sampling."""

    @pytest.mark.parametrize("call, name", [
        (lambda inst: xref_boundedness_probe(inst, [0.0, 0.0], float("nan")), "radius"),
        (lambda inst: xref_boundedness_probe(inst, [0.0, 0.0], float("inf")), "radius"),
        (lambda inst: karamardian_coercivity_probe(inst, float("nan")), "c"),
        (lambda inst: coercivity_probe(inst, [float("nan"), 2.0]), "radii"),
        (lambda inst: coercivity_probe(inst, [1.0, float("inf")]), "radii"),
        (lambda inst: r0_test(inst, refine_iters=-5), "refine_iters"),
        (lambda inst: r0_shifted_pair_probe(inst, refine_iters=-5), "refine_iters"),
    ], ids=["xref-radius-nan", "xref-radius-inf", "karamardian-c-nan", "coercivity-radii-nan",
            "coercivity-radii-inf", "r0-refine-negative", "r0-shifted-refine-negative"])
    def test_refused(self, monkeypatch, identity_pair, call, name):
        from pcpkit import probes

        monkeypatch.setattr(probes, "unit_sphere", refuse_sampling)
        with pytest.raises(InputError, match=f"^{name} must be "):
            call(identity_pair)


class TestReportDigests:
    """Every probe's report is pinned byte for byte on criterion-10 instances and the fixtures."""

    @staticmethod
    def digests(inst):
        n = inst.n
        runs = (
            lambda: r0_test(inst, seed=1),
            lambda: r0_test(inst, seed=1, componentwise=True),
            lambda: r0_shifted_pair_probe(inst, samples=512, refine_iters=60, seed=2),
            lambda: coercivity_probe(inst, [1.0, 2.0, 4.0, 8.0], samples_per_radius=256, seed=3),
            lambda: p_function_probe(inst, [[-4.0, 4.0]] * n, pairs=200, seed=4),
            lambda: xref_boundedness_probe(inst, np.full(n, 0.5), 2.0, samples=512, seed=5),
            lambda: karamardian_coercivity_probe(inst, 0.5, samples=512, seed=6),
            lambda: jacobian_degeneracy_scan(enumerate_solutions(inst, CFG)),
        )
        texts = []
        for run in runs:
            try:
                texts.append(json.dumps(run().to_dict()))
            except PcpError as error:
                texts.append(repr(error))
        return tuple(hashlib.sha256(text.encode()).hexdigest() for text in texts)

    @pytest.mark.parametrize("k", range(10))
    def test_criterion_10_instances(self, k):
        assert self.digests(trial_instance(2, (2, 2), 0, k)) == PROBE_DIGESTS[f"c10-{k}"]

    @pytest.mark.parametrize("fixture", FIXTURES)
    def test_fixtures(self, request, fixture):
        assert self.digests(request.getfixturevalue(fixture)) == PROBE_DIGESTS[fixture]
