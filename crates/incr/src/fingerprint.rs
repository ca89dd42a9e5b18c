//! Labeling-function fingerprints — the cache's content address.
//!
//! A fingerprint identifies *one behavioral version* of one labeling
//! function. The cache key is `(fingerprint, candidate)`: two lookups
//! collide exactly when the same LF version is applied to the same
//! candidate, which is precisely when the cached vote is reusable.
//!
//! Rust closures cannot be hashed structurally, so the fingerprint is
//! derived from the LF's *name* plus a caller-supplied **content tag**:
//!
//! * **Tagged** (`add_lf_tagged` / `edit_lf_tagged`): the tag is a hash
//!   of whatever the caller considers the LF's content — source text,
//!   pattern string, KB snapshot id. Re-submitting a previously seen
//!   `(name, tag)` pair reproduces the same fingerprint, so reverting an
//!   edit is a 100% cache hit.
//! * **Untagged** (`add_lf` / `edit_lf`): the session assigns a
//!   monotonically increasing per-name version counter as the tag. Every
//!   untagged edit is assumed to change behavior (the conservative
//!   choice), so untagged reverts recompute.

use std::hash::{Hash, Hasher};

use snorkel_matrix::Fnv1a;

/// A labeling function's behavioral fingerprint.
#[derive(Clone, Copy, Debug, Hash, PartialEq, Eq, PartialOrd, Ord)]
pub struct Fingerprint(pub u64);

impl Fingerprint {
    /// Fingerprint of `(name, content tag)` — the caller-tagged domain.
    pub fn of(name: &str, content_tag: u64) -> Fingerprint {
        Fingerprint::with_domain(b'T', name, content_tag)
    }

    /// Fingerprint of `(name, session version counter)` — the
    /// auto-versioned domain. Domain-separated from [`Self::of`] so a
    /// session-assigned counter value can never collide with a
    /// caller-supplied content tag of the same numeric value (which
    /// would silently serve a stale cached column).
    pub fn of_auto(name: &str, version: u64) -> Fingerprint {
        Fingerprint::with_domain(b'A', name, version)
    }

    fn with_domain(domain: u8, name: &str, tag: u64) -> Fingerprint {
        let mut h = Fnv1a::new();
        h.write(&[domain]);
        name.hash(&mut h);
        tag.hash(&mut h);
        Fingerprint(h.finish())
    }

    /// Convenience: a content tag from a byte representation of the LF's
    /// definition (e.g. its source text or pattern string).
    pub fn content_tag(bytes: impl AsRef<[u8]>) -> u64 {
        Fnv1a::of(bytes.as_ref())
    }
}

impl std::fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::Fingerprint;

    #[test]
    fn deterministic_and_content_sensitive() {
        assert_eq!(Fingerprint::of("lf_a", 0), Fingerprint::of("lf_a", 0));
        assert_ne!(Fingerprint::of("lf_a", 0), Fingerprint::of("lf_a", 1));
        assert_ne!(Fingerprint::of("lf_a", 0), Fingerprint::of("lf_b", 0));
        // Name/tag boundaries matter: ("ab", tag(c)) ≠ ("a", tag(bc)).
        assert_ne!(
            Fingerprint::of("ab", Fingerprint::content_tag("c")),
            Fingerprint::of("a", Fingerprint::content_tag("bc")),
        );
    }

    #[test]
    fn auto_and_tagged_domains_never_collide() {
        // A session version counter reaching the same numeric value as a
        // caller content tag must still be a distinct LF version.
        for v in 0..50u64 {
            assert_ne!(Fingerprint::of("lf", v), Fingerprint::of_auto("lf", v));
        }
        assert_eq!(Fingerprint::of_auto("lf", 3), Fingerprint::of_auto("lf", 3));
    }

    #[test]
    fn content_tag_round_trips_revert() {
        let v1 = Fingerprint::of("lf", Fingerprint::content_tag("x.words() > 3"));
        let v2 = Fingerprint::of("lf", Fingerprint::content_tag("x.words() > 5"));
        let reverted = Fingerprint::of("lf", Fingerprint::content_tag("x.words() > 3"));
        assert_ne!(v1, v2);
        assert_eq!(v1, reverted, "reverting content restores the fingerprint");
    }
}
