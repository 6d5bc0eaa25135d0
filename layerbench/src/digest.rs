//! A digest of simulated outputs: FNV-1a 64 over their exact renderings.
//!
//! Only modelled values are fed in (reports, `Debug` renderings of sim
//! results, error messages) — never host times — so the digest of a
//! workload and seed stays bit-identical across passes, runs and machines
//! unless the simulator's numbers change.

/// Incremental FNV-1a 64.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds `text` in, followed by a separator so `("ab", "c")` and
    /// `("a", "bc")` differ.
    pub fn add(&mut self, text: &str) {
        for b in text.bytes().chain([0xff]) {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// The digest as 16 hex digits.
    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn of(parts: &[&str]) -> String {
        let mut d = Digest::default();
        for p in parts {
            d.add(p);
        }
        d.hex()
    }

    #[test]
    fn same_outputs_same_digest() {
        let outputs = ["Ok(1.5)", "Err(out of memory)", "{\"groups\": 4}"];
        assert_eq!(of(&outputs), of(&outputs));
        assert_eq!(of(&outputs).len(), 16);
    }

    #[test]
    fn any_change_order_or_split_changes_the_digest() {
        assert_ne!(of(&["a", "b"]), of(&["b", "a"]));
        assert_ne!(of(&["ab", "c"]), of(&["a", "bc"]));
        assert_ne!(of(&["0.30000000000000004"]), of(&["0.3"]));
        assert_ne!(of(&[]), of(&[""]));
    }
}
