//! Online-reclustering jobs: the service-side wrapper around
//! [`snakes_storage::Migration`].
//!
//! A job migrates a clustered table from one linearization to another in
//! bounded chunks while the daemon keeps serving. The table itself is a
//! *deterministic function of the job's spec* — every record's bytes are
//! [`synthetic_record`] of its cell coordinates and index — which buys two
//! things at once:
//!
//! * **Durability without page bytes.** The WAL logs only the job spec
//!   and the migration fence
//!   ([`crate::durability::ReclusterSnapshot`]); recovery rebuilds the
//!   table from the spec and *redoes* chunk copies up to the logged
//!   fence. Every redo writes the identical bytes, so replay is
//!   idempotent at any crash point.
//! * **Self-verifying serving.** A differential probe can check any
//!   record the mixed-layout executor returns against the generator
//!   alone — no shadow copy of the table needed. [`RunningJob::probe`]
//!   runs after every chunk and asserts the fence-split scan is
//!   bit-identical to what either pure layout would serve.

use crate::durability::ReclusterSnapshot;
use crate::engine::{admit_schema, bounded_cells, resolve_strategy, WireCurve, MAX_PHYSICAL_BYTES};
use crate::error::ServiceError;
use crate::protocol::ReclusterBody;
use snakes_curves::Linearization;
use snakes_storage::{CellData, Migration, StorageConfig, TableFile};
use std::collections::HashMap;
use std::io;
use std::io::Cursor;
use std::ops::Range;

/// Backend of the synthetic tables: both sides of the migration live in
/// memory (the byte-exact paged engine on a `Vec<u8>`).
pub(crate) type MemBackend = Cursor<Vec<u8>>;

/// The live half of a running job: the migration plus the materialized
/// curves it steps and scans with.
pub(crate) struct RunningJob {
    pub migration: Migration<MemBackend, MemBackend>,
    pub old_curve: WireCurve,
    pub new_curve: WireCurve,
    pub cells: CellData,
    records_per_cell: u64,
    record_size: u64,
}

/// One online-reclustering job as the engine tracks it: the durable
/// after-state mirror (also the status surface) plus the live migration
/// while running.
pub(crate) struct ReclusterJob {
    /// Durable after-state; every field the WAL persists.
    pub snap: ReclusterSnapshot,
    /// Live migration; `Some` exactly while `snap.state == "running"`.
    pub running: Option<RunningJob>,
    /// Drift session whose layout this job migrates (auto-triggered jobs
    /// only): on completion the session's assumed layout advances to the
    /// target path.
    pub notify_session: Option<String>,
    /// Human-readable identity of the source linearization.
    pub from_label: String,
    /// Human-readable identity of the target linearization.
    pub to_label: String,
    /// Total grid cells to migrate.
    pub total_cells: u64,
}

impl ReclusterJob {
    /// The wire status body for this job.
    pub fn body(&self) -> ReclusterBody {
        ReclusterBody {
            job: self.snap.job.clone(),
            state: self.snap.state.clone(),
            from: self.from_label.clone(),
            to: self.to_label.clone(),
            fence: self.snap.fence,
            total_cells: self.total_cells,
            chunks_applied: self.snap.chunks_applied,
            records_moved: self.snap.records_moved,
            probes: self.snap.probes,
        }
    }
}

/// The deterministic record fill: a pure function of cell coordinates and
/// in-cell index (a splitmix-style hash cycled over the record), so any
/// scanned record can be verified against its provenance alone.
pub(crate) fn synthetic_record(record_size: u64, coords: &[u64], index: u64) -> Vec<u8> {
    let mut h: u64 = 0x9E37_79B9_7F4A_7C15;
    for &c in coords {
        h = (h ^ c).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h ^= h >> 27;
    }
    h = (h ^ index).wrapping_mul(0x94D0_49BB_1331_11EB);
    h ^= h >> 31;
    let mut rec = vec![0u8; record_size as usize];
    for (j, b) in rec.iter_mut().enumerate() {
        if j % 8 == 0 && j > 0 {
            h = h.wrapping_mul(0x2545_F491_4F6C_DD1D);
            h ^= h >> 29;
        }
        *b = (h >> ((j % 8) * 8)) as u8;
    }
    rec
}

/// Builds a job from its durable snapshot: validates the spec, and for a
/// running job materializes the synthetic table and *redoes* chunk copies
/// up to the snapshot's fence (bit-identical bytes, so replaying over a
/// partially written new file is safe at any crash point).
///
/// # Errors
///
/// `BadRequest` on invalid specs or capped geometry; I/O errors surface
/// from the in-memory paged engine (practically infallible).
pub(crate) fn build_job(snap: ReclusterSnapshot) -> Result<ReclusterJob, ServiceError> {
    let schema = admit_schema(snap.schema.clone())?;
    let total_cells = bounded_cells(&schema)?;
    let (from_lazy, _, from_label) = resolve_strategy(&schema, &snap.from)?;
    let (to_lazy, _, to_label) = resolve_strategy(&schema, &snap.to)?;
    let m = &snap.measure;
    if m.records_per_cell == 0 || m.page_size == 0 || m.record_size == 0 {
        return Err(ServiceError::BadRequest(
            "`measure` fields must be positive".into(),
        ));
    }
    if snap.chunk_pages == 0 {
        return Err(ServiceError::BadRequest(
            "`recluster.chunk_pages` must be positive".into(),
        ));
    }
    let bytes = total_cells
        .checked_mul(m.records_per_cell)
        .and_then(|r| r.checked_mul(m.record_size))
        .ok_or_else(|| ServiceError::BadRequest("`measure` sizes overflow".into()))?;
    if bytes > MAX_PHYSICAL_BYTES {
        return Err(ServiceError::BadRequest(format!(
            "reclustering would pack {bytes} record bytes per side; \
             capped at {MAX_PHYSICAL_BYTES}"
        )));
    }
    if snap.fence > total_cells {
        return Err(ServiceError::BadRequest(format!(
            "fence {} exceeds the grid's {total_cells} cells",
            snap.fence
        )));
    }
    let running = if snap.state == "running" {
        let old_curve = from_lazy.build(&schema);
        let new_curve = to_lazy.build(&schema);
        let cells = CellData::from_counts(
            schema.grid_shape(),
            vec![m.records_per_cell; total_cells as usize],
        );
        let config = StorageConfig {
            page_size: m.page_size,
            record_size: m.record_size,
        };
        let record_size = m.record_size;
        let old = TableFile::create_in_memory(&old_curve, &cells, config, |coords, i| {
            synthetic_record(record_size, coords, i)
        })?;
        let mut migration = Migration::begin(
            old,
            Cursor::new(Vec::new()),
            &new_curve,
            &cells,
            snap.chunk_pages,
        )?;
        // Redo phase: replay chunk copies until the fence catches up with
        // the durable one. Chunk boundaries are deterministic, so the
        // fence lands exactly on `snap.fence`.
        while migration.fence() < snap.fence {
            migration.step(&old_curve, &new_curve)?;
        }
        Some(RunningJob {
            migration,
            old_curve,
            new_curve,
            cells,
            records_per_cell: m.records_per_cell,
            record_size,
        })
    } else {
        None
    };
    Ok(ReclusterJob {
        snap,
        running,
        notify_session: None,
        from_label,
        to_label,
        total_cells,
    })
}

impl RunningJob {
    /// One differential probe: scans a small box straddling the current
    /// fence through the mixed-layout executor and asserts every record
    /// is exactly the synthetic fill — i.e. byte-identical to what a scan
    /// of either pure layout would serve.
    ///
    /// # Panics
    ///
    /// Panics when the mixed scan returns a wrong record or count: that
    /// is a serving-correctness violation and must fail stop.
    ///
    /// # Errors
    ///
    /// Propagates paged-engine I/O errors.
    pub fn probe(&mut self) -> io::Result<()> {
        let extents = self.new_curve.extents().to_vec();
        let total: u64 = extents.iter().product();
        if total == 0 {
            return Ok(());
        }
        // Anchor the box on the last migrated cell so it straddles the
        // fence whenever a boundary exists.
        let anchor = self.migration.fence().saturating_sub(1).min(total - 1);
        let mut coords = vec![0u64; extents.len()];
        self.new_curve.coords(anchor, &mut coords);
        let ranges: Vec<Range<u64>> = coords
            .iter()
            .zip(&extents)
            .map(|(&c, &e)| c.saturating_sub(1)..(c + 2).min(e))
            .collect();
        let box_cells: u64 = ranges.iter().map(|r| r.end - r.start).product();
        let mut seen: HashMap<Vec<u64>, u64> = HashMap::new();
        let mut records = 0u64;
        let record_size = self.record_size;
        self.migration.scan_mixed(
            &self.old_curve,
            &self.new_curve,
            &ranges,
            |cell, payload| {
                let index = seen.entry(cell.to_vec()).or_insert(0);
                let expected = synthetic_record(record_size, cell, *index);
                assert_eq!(
                    payload, expected,
                    "mixed scan served wrong bytes for cell {cell:?} record {index}"
                );
                *index += 1;
                records += 1;
            },
        )?;
        assert_eq!(
            records,
            box_cells * self.records_per_cell,
            "mixed scan dropped or duplicated records in {ranges:?}"
        );
        for (cell, count) in &seen {
            assert_eq!(
                *count, self.records_per_cell,
                "cell {cell:?} served {count} records"
            );
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_records_are_deterministic_and_distinct() {
        let a = synthetic_record(32, &[1, 2], 0);
        let b = synthetic_record(32, &[1, 2], 0);
        assert_eq!(a, b, "same provenance, same bytes");
        assert_ne!(a, synthetic_record(32, &[1, 2], 1), "index changes bytes");
        assert_ne!(a, synthetic_record(32, &[2, 1], 0), "cell changes bytes");
        assert_eq!(a.len(), 32);
        // Long records keep varying past the first hash word.
        let long = synthetic_record(24, &[3, 4], 5);
        assert_ne!(long[0..8], long[8..16]);
    }
}
