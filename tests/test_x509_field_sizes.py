"""Unit tests for per-field size accounting."""

from repro.x509.field_sizes import mean_from_sums, measure_field_sizes, san_byte_share

FIELDS = ("subject", "issuer", "public_key_info", "extensions", "signature", "other", "total")


def mean_field_sizes(certificates):
    """Mean field sizes the way Figure 8 folds them: integer sums, then one division."""
    sizes = [measure_field_sizes(certificate) for certificate in certificates]
    sums = {name: sum(getattr(size, name) for size in sizes) for name in FIELDS}
    return mean_from_sums(sums, len(sizes))


class TestMeasureFieldSizes:
    def test_fields_sum_to_at_most_total(self, cloudflare_chain):
        for certificate in cloudflare_chain:
            sizes = measure_field_sizes(certificate)
            accounted = (
                sizes.subject
                + sizes.issuer
                + sizes.public_key_info
                + sizes.extensions
                + sizes.signature
            )
            assert accounted + sizes.other == sizes.total
            assert sizes.total == certificate.size

    def test_other_is_small_framing_overhead(self, lets_encrypt_short_chain):
        sizes = measure_field_sizes(lets_encrypt_short_chain.leaf)
        # Version, serial, validity, algorithm identifiers and framing stay below ~150 B.
        assert 0 < sizes.other < 180

    def test_extensions_dominate_leaf_certificates(self, cloudflare_chain):
        sizes = measure_field_sizes(cloudflare_chain.leaf)
        assert sizes.extensions > sizes.subject
        assert sizes.extensions > sizes.issuer


class TestSanByteShare:
    def test_share_between_zero_and_one(self, hierarchy):
        chain = hierarchy.profiles["Cloudflare ECC CA-3"].issue("share.example")
        assert 0.0 < san_byte_share(chain.leaf) < 1.0

    def test_ca_certificates_have_zero_san_share(self, cloudflare_chain):
        for certificate in cloudflare_chain.certificates[1:]:
            assert san_byte_share(certificate) == 0.0

    def test_cruise_liner_has_high_share(self, hierarchy):
        profile = hierarchy.profiles["Cloudflare ECC CA-3"]
        cruise = profile.issue(
            "cruise.example", san_names=[f"tenant{i}.cruise.example" for i in range(300)]
        )
        assert san_byte_share(cruise.leaf) > 0.5


class TestMeanFieldSizes:
    def test_empty_input(self):
        sizes = mean_field_sizes([])
        assert sizes.total == 0

    def test_mean_over_identical_certs_equals_single(self, cloudflare_chain):
        leaf = cloudflare_chain.leaf
        single = measure_field_sizes(leaf)
        mean = mean_field_sizes([leaf, leaf, leaf])
        assert mean.total == single.total
        assert mean.extensions == single.extensions

    def test_mean_is_between_min_and_max(self, cloudflare_chain, lets_encrypt_long_chain):
        small = cloudflare_chain.leaf
        large = lets_encrypt_long_chain.certificates[1]
        mean = mean_field_sizes([small, large])
        assert min(small.size, large.size) <= mean.total <= max(small.size, large.size)
