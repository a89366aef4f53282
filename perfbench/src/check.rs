//! The correctness gate: every output the benchmark sees is checked
//! against a model kept outside the program, and every miss counts.

use adelie_kernel::{disk_byte, SECTOR_SIZE};

/// Tally of checks made and failed, with the first few failures kept
/// for the report.
#[derive(Default, Debug)]
pub struct Checks {
    /// Checks made.
    pub attempted: u64,
    /// Checks that failed.
    pub failed: u64,
    /// Descriptions of the first [`Checks::KEEP`] failures.
    pub notes: Vec<String>,
}

impl Checks {
    /// Failure descriptions kept for the report.
    pub const KEEP: usize = 8;

    /// Count one check; on failure keep its description.
    pub fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < Self::KEEP {
                self.notes.push(what());
            }
        }
        ok
    }
}

/// One sector's bytes.
pub type Sector = [u8; SECTOR_SIZE];

/// What each sector of the `blk` file must read back: the bytes last
/// written to it, or the pristine disk pattern if never written.
pub struct DiskModel {
    first_lba: u64,
    written: Vec<Option<Box<Sector>>>,
}

impl DiskModel {
    /// A never-written file of `sectors` sectors starting at `first_lba`.
    pub fn new(first_lba: u64, sectors: u64) -> DiskModel {
        DiskModel {
            first_lba,
            written: (0..sectors).map(|_| None).collect(),
        }
    }

    /// Sectors in the file.
    pub fn sectors(&self) -> u64 {
        self.written.len() as u64
    }

    /// Record a completed write.
    pub fn wrote(&mut self, sector: u64, data: &Sector) {
        self.written[sector as usize] = Some(Box::new(*data));
    }

    /// Sectors written so far.
    pub fn written(&self) -> impl Iterator<Item = u64> + '_ {
        (0..self.sectors()).filter(|&s| self.written[s as usize].is_some())
    }

    /// Whether `got` is what `sector` must read back.
    pub fn matches(&self, sector: u64, got: &[u8]) -> bool {
        match &self.written[sector as usize] {
            Some(data) => got == &data[..],
            None => {
                let lba = self.first_lba + sector;
                got.len() == SECTOR_SIZE
                    && got.iter().enumerate().all(|(i, &b)| b == disk_byte(lba, i))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checks_count_and_keep_failures() {
        let mut c = Checks::default();
        assert!(c.expect(true, || unreachable!()));
        assert!(!c.expect(false, || "ioctl returned 3, want 4".into()));
        assert_eq!((c.attempted, c.failed), (2, 1));
        assert_eq!(c.notes, ["ioctl returned 3, want 4"]);
    }

    #[test]
    fn model_accepts_pristine_and_written_sectors() {
        let mut m = DiskModel::new(1000, 4);
        let pristine: Vec<u8> = (0..SECTOR_SIZE).map(|i| disk_byte(1002, i)).collect();
        assert!(m.matches(2, &pristine));
        let data = [0xA5; SECTOR_SIZE];
        m.wrote(2, &data);
        assert!(m.matches(2, &data));
        assert_eq!(m.written().collect::<Vec<_>>(), [2]);
    }

    #[test]
    fn model_trips_on_a_wrong_result() {
        let mut m = DiskModel::new(1000, 4);
        // Pristine content of the wrong sector.
        let other: Vec<u8> = (0..SECTOR_SIZE).map(|i| disk_byte(1003, i)).collect();
        assert!(!m.matches(2, &other));
        // A stale read after a write.
        let pristine: Vec<u8> = (0..SECTOR_SIZE).map(|i| disk_byte(1001, i)).collect();
        m.wrote(1, &[7; SECTOR_SIZE]);
        assert!(!m.matches(1, &pristine));
        // One flipped byte, and a short read.
        let mut data = [7; SECTOR_SIZE];
        data[511] ^= 1;
        assert!(!m.matches(1, &data));
        assert!(!m.matches(0, &[]));
    }
}
