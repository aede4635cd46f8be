//! A hash of an output pose sequence. Equal hashes mean bit-identical
//! poses in the same order, so runs of one seed can prove they observed
//! the same program.

use eslam_geometry::Se3;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over the bit patterns of every pose entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoseHash(u64);

impl Default for PoseHash {
    fn default() -> Self {
        PoseHash(FNV_OFFSET)
    }
}

impl PoseHash {
    fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
        }
    }

    /// Appends one pose (rotation row-major, then translation).
    pub fn pose(&mut self, pose: &Se3) {
        self.word(1);
        for row in &pose.rotation.m {
            for v in row {
                self.word(v.to_bits());
            }
        }
        let t = pose.translation;
        for v in [t.x, t.y, t.z] {
            self.word(v.to_bits());
        }
    }

    /// Appends an output that may be missing (a failed localization).
    pub fn maybe_pose(&mut self, pose: Option<&Se3>) {
        match pose {
            Some(p) => self.pose(p),
            None => self.word(0),
        }
    }

    pub fn value(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eslam_geometry::Vec3;

    fn hash(poses: &[Option<Se3>]) -> u64 {
        let mut h = PoseHash::default();
        for p in poses {
            h.maybe_pose(p.as_ref());
        }
        h.value()
    }

    fn at(x: f64) -> Se3 {
        Se3 {
            translation: Vec3::new(x, 0.5, -1.0),
            ..Se3::identity()
        }
    }

    #[test]
    fn equal_sequences_hash_equal() {
        let seq = [Some(at(0.1)), None, Some(at(0.2))];
        assert_eq!(hash(&seq), hash(&seq.clone()));
    }

    #[test]
    fn any_bit_order_or_gap_changes_the_hash() {
        let base = hash(&[Some(at(0.1)), Some(at(0.2))]);
        let ulp = f64::from_bits(0.2f64.to_bits() + 1);
        assert_ne!(base, hash(&[Some(at(0.1)), Some(at(ulp))]));
        assert_ne!(base, hash(&[Some(at(0.2)), Some(at(0.1))]));
        assert_ne!(base, hash(&[Some(at(0.1)), None, Some(at(0.2))]));
        assert_ne!(base, hash(&[Some(at(0.1))]));
        assert_ne!(hash(&[None]), hash(&[]));
    }
}
