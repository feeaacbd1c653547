//! Deterministic fault-injection properties for the artifact registry
//! (DESIGN.md §6h): under every scripted fault schedule — partial
//! writes, disk-full at a byte offset, bounded transient errors, torn
//! renames, crash stops — the registry file must hold either the
//! bit-identical previous artifact or the bit-identical new one, and
//! every failure must surface as a typed error. No schedule may yield a
//! silently wrong tally: whatever survives on disk always decodes
//! cleanly to one of the two known-good lattices.

use std::path::PathBuf;
use std::sync::Arc;

use datasets::artifact::{self, ArenaKey};
use datasets::artifact_io::{ArtifactIo, DiskIo, Fault, FaultyIo, MemIo, RETRY_LIMIT};
use fpm::ItemsetArena;
use proptest::prelude::*;

/// A small but real candidate lattice, distinct per `tag`.
fn arena_with(tag: u64, n: usize) -> ItemsetArena<()> {
    let mut arena = ItemsetArena::new();
    for i in 0..n as u32 {
        arena.push(&[i, i + n as u32], tag + i as u64 + 1, ());
    }
    arena
}

/// The lattice's records (items, support), for comparing arenas.
fn records(arena: &ItemsetArena<()>) -> Vec<(Vec<u32>, u64)> {
    arena
        .iter()
        .map(|e| (e.items.to_vec(), e.support))
        .collect()
}

/// Bytes that fail artifact validation, as a torn-but-applied write or
/// bit rot would leave them.
const POISON: &[u8] = b"DIVXgarbage-not-a-valid-artifact";

fn registry_key(hash: u64) -> ArenaKey {
    ArenaKey {
        dataset_hash: hash,
        min_support_count: 2,
        max_len: None,
        engine: "dense".to_string(),
        n_rows: 64,
    }
}

/// Strategy: one scripted fault. Offsets overshoot typical artifact
/// sizes so "fault past the end of the payload" schedules occur too.
fn fault() -> impl Strategy<Value = Fault> {
    (
        0usize..4,
        0usize..600,
        1u32..(RETRY_LIMIT + 3),
        any::<bool>(),
    )
        .prop_map(|(kind, offset, count, applied)| match kind {
            0 => Fault::CrashAtWrite { offset },
            1 => Fault::DiskFull { offset },
            2 => Fault::Transient { count },
            _ => Fault::TornRename { applied },
        })
}

fn fault_plan() -> impl Strategy<Value = Vec<Fault>> {
    proptest::collection::vec(fault(), 0..4)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// THE core robustness property: for every fault schedule, after a
    /// baseline artifact was persisted and a second write ran under
    /// injected faults, the registry file decodes cleanly and is
    /// bit-identical to the old or the new artifact. A reported success
    /// additionally guarantees the new bytes are the ones on disk.
    #[test]
    fn no_fault_schedule_yields_a_silently_wrong_artifact(
        plan in fault_plan(),
        n in 1usize..8,
    ) {
        let key = registry_key(42);
        let old = arena_with(1, 3);
        let new = arena_with(100, n);
        let old_bytes = artifact::encode_arena(&key, &old);
        let new_bytes = artifact::encode_arena(&key, &new);
        let path = PathBuf::from("reg/x.dxa");

        let disk = Arc::new(MemIo::new());
        artifact::save_arena_with(&*disk, &path, &key, &old).unwrap();

        let io = FaultyIo::new(Arc::clone(&disk), plan);
        let outcome = artifact::save_arena_with(&io, &path, &key, &new);

        // Inspect the surviving disk directly — the post-crash state.
        let survived = disk.contents(&path).unwrap();
        prop_assert!(
            survived == old_bytes || survived == new_bytes,
            "registry file must be fully-old or fully-new, never torn"
        );
        if outcome.is_ok() {
            prop_assert_eq!(&survived, &new_bytes, "Ok must mean the new bytes landed");
        }
        // Whatever survived decodes cleanly — a fresh process after the
        // fault sees a valid artifact, not a typed-error wasteland.
        let (loaded_key, _) = artifact::load_arena_with(&*disk, &path).unwrap();
        prop_assert_eq!(loaded_key, key);
    }

    /// Transient (EINTR-style) faults within the retry bound are
    /// absorbed: the write succeeds and the artifact is bit-identical
    /// to an undisturbed write.
    #[test]
    fn transient_faults_within_the_bound_are_invisible(
        count in 1u32..=RETRY_LIMIT,
        n in 1usize..8,
    ) {
        let key = registry_key(7);
        let arena = arena_with(50, n);
        let expected = artifact::encode_arena(&key, &arena);
        let path = PathBuf::from("reg/x.dxa");

        let disk = Arc::new(MemIo::new());
        let io = FaultyIo::new(Arc::clone(&disk), vec![Fault::Transient { count }]);
        artifact::save_arena_with(&io, &path, &key, &arena).unwrap();
        prop_assert_eq!(disk.contents(&path).unwrap(), expected);
    }

    /// The resolver under every fault schedule: a poisoned slot yields
    /// exactly the mine step's lattice plus a quarantine warning, and
    /// afterwards the slot either decodes to the key (holding that same
    /// lattice) or the resolver reported a failed write-back. Never
    /// another lattice, never a panic.
    #[test]
    fn a_poisoned_slot_resolves_to_the_mined_lattice_under_any_fault_schedule(
        plan in fault_plan(),
        n in 1usize..8,
    ) {
        let key = registry_key(29);
        let mined = records(&arena_with(100, n));
        let path = PathBuf::from("reg/x.dxa");

        let disk = Arc::new(MemIo::new());
        disk.write(&path, POISON).unwrap();
        let io = FaultyIo::new(Arc::clone(&disk), plan);
        let resolved =
            artifact::resolve_lattice(&io, &path, &key, || Ok::<_, ()>(arena_with(100, n)))
                .unwrap();

        prop_assert_eq!(resolved.source, "mined");
        prop_assert_eq!(records(&resolved.lattice), mined.clone());
        prop_assert!(resolved.quarantined);
        prop_assert!(resolved.warnings[0].contains("quarantine"), "{:?}", resolved.warnings);
        let wrote_back = resolved.warnings.iter().any(|w| w.contains("registry write failed"));
        prop_assert_eq!(wrote_back, resolved.persist_failed);
        match artifact::load_arena_with(&*disk, &path) {
            Ok((loaded_key, loaded)) if loaded_key == key => {
                prop_assert_eq!(records(&loaded), mined);
            }
            _ => prop_assert!(resolved.persist_failed, "slot lost without a warning"),
        }
    }
}

/// A crash at *every* byte offset of the payload (exhaustive, not
/// sampled): the destination always keeps the old bytes — the crash
/// hits the temp file, never the registry slot.
#[test]
fn crash_at_any_write_offset_leaves_the_registry_fully_old() {
    let key = registry_key(9);
    let old = arena_with(1, 4);
    let new = arena_with(200, 6);
    let old_bytes = artifact::encode_arena(&key, &old);
    let new_bytes = artifact::encode_arena(&key, &new);
    let path = PathBuf::from("reg/x.dxa");

    for offset in 0..=new_bytes.len() {
        let disk = Arc::new(MemIo::new());
        artifact::save_arena_with(&*disk, &path, &key, &old).unwrap();
        let io = FaultyIo::new(Arc::clone(&disk), vec![Fault::CrashAtWrite { offset }]);
        let err = artifact::save_arena_with(&io, &path, &key, &new).unwrap_err();
        assert!(io.crashed(), "offset {offset}: the crash fault must fire");
        let _ = err;
        assert_eq!(
            disk.contents(&path).unwrap(),
            old_bytes,
            "offset {offset}: registry slot must be fully old"
        );
        let (loaded_key, loaded) = artifact::load_arena_with(&*disk, &path).unwrap();
        assert_eq!(loaded_key, key, "offset {offset}");
        assert_eq!(loaded.len(), old.len(), "offset {offset}");
    }
}

/// A torn rename is the one fault that can land the new bytes alongside
/// a reported failure: either side of the tear decodes cleanly.
#[test]
fn torn_rename_leaves_a_decodable_artifact_on_both_sides() {
    let key = registry_key(11);
    let old = arena_with(1, 2);
    let new = arena_with(300, 5);
    let path = PathBuf::from("reg/x.dxa");
    for applied in [false, true] {
        let disk = Arc::new(MemIo::new());
        artifact::save_arena_with(&*disk, &path, &key, &old).unwrap();
        let io = FaultyIo::new(Arc::clone(&disk), vec![Fault::TornRename { applied }]);
        artifact::save_arena_with(&io, &path, &key, &new).unwrap_err();
        let (_, loaded) = artifact::load_arena_with(&*disk, &path).unwrap();
        let want = if applied { new.len() } else { old.len() };
        assert_eq!(loaded.len(), want, "applied={applied}");
    }
}

/// Disk-full surfaces typed, cleans up its temp file, and leaves the
/// previous artifact untouched and loadable.
#[test]
fn disk_full_fails_typed_and_preserves_the_previous_artifact() {
    let key = registry_key(13);
    let old = arena_with(1, 3);
    let new = arena_with(400, 7);
    let old_bytes = artifact::encode_arena(&key, &old);
    let path = PathBuf::from("reg/x.dxa");

    let disk = Arc::new(MemIo::new());
    artifact::save_arena_with(&*disk, &path, &key, &old).unwrap();
    let io = FaultyIo::new(Arc::clone(&disk), vec![Fault::DiskFull { offset: 10 }]);
    let err = artifact::save_arena_with(&io, &path, &key, &new).unwrap_err();
    assert!(
        err.to_string().contains("disk full"),
        "typed error names the cause: {err}"
    );
    assert_eq!(disk.contents(&path).unwrap(), old_bytes);
    assert_eq!(disk.paths(), vec![path.clone()], "temp file cleaned up");
    assert!(artifact::load_arena_with(&*disk, &path).is_ok());
}

/// Persistent transient faults exhaust the retry budget and fail typed;
/// the registry keeps serving the previous artifact.
#[test]
fn exhausted_retries_fail_typed_with_the_old_artifact_intact() {
    let key = registry_key(17);
    let old = arena_with(1, 3);
    let path = PathBuf::from("reg/x.dxa");

    let disk = Arc::new(MemIo::new());
    artifact::save_arena_with(&*disk, &path, &key, &old).unwrap();
    let io = FaultyIo::new(
        Arc::clone(&disk),
        vec![Fault::Transient {
            count: RETRY_LIMIT + 1,
        }],
    );
    let err = artifact::save_arena_with(&io, &path, &key, &arena_with(500, 4)).unwrap_err();
    assert!(
        err.to_string().contains("transient"),
        "typed error names the cause: {err}"
    );
    let (loaded_key, loaded) = artifact::load_arena_with(&*disk, &path).unwrap();
    assert_eq!(loaded_key, key);
    assert_eq!(loaded.len(), old.len());
}

/// Concurrent writers racing on the same `ArenaKey` over the real
/// filesystem: atomic rename means last-writer-wins, no reader ever
/// observes a torn file, and the final state loads cleanly.
#[test]
fn concurrent_writers_to_the_same_key_never_tear_the_artifact() {
    let dir = std::env::temp_dir().join(format!("fault-inj-race-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let key = registry_key(21);
    let path = dir.join(artifact::arena_file_name(&key));

    // Two distinct valid payloads for the same registry slot.
    let arenas: Vec<ItemsetArena<()>> = vec![arena_with(1, 4), arena_with(1000, 6)];
    let valid: Vec<Vec<u8>> = arenas
        .iter()
        .map(|a| artifact::encode_arena(&key, a))
        .collect();
    artifact::save_arena(&path, &key, &arenas[0]).unwrap();

    std::thread::scope(|scope| {
        for arena in &arenas {
            let path = path.clone();
            let key = key.clone();
            scope.spawn(move || {
                for _ in 0..40 {
                    artifact::save_arena(&path, &key, arena).unwrap();
                }
            });
        }
        // A concurrent reader: every observation mid-race is one of the
        // two complete payloads, never an interleaving.
        for _ in 0..200 {
            let bytes = DiskIo.read(&path).unwrap();
            assert!(
                valid.contains(&bytes),
                "reader observed a torn artifact ({} bytes)",
                bytes.len()
            );
        }
    });

    // Last writer won; whichever it was, the slot decodes cleanly.
    let final_bytes = DiskIo.read(&path).unwrap();
    assert!(valid.contains(&final_bytes));
    let (loaded_key, _) = artifact::load_arena(&path).unwrap();
    assert_eq!(loaded_key, key);
    // The race leaves no temp-file litter behind.
    let strays = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| *p != path)
        .count();
    assert_eq!(strays, 0, "no temp files survive the race");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The quarantine flow end to end through the resolver: a poisoned slot
/// moves to `*.quarantine`, the slot is rebuilt with `atomic_write`, and
/// both files are where forensics expects them.
#[test]
fn quarantine_then_rebuild_restores_the_registry_slot() {
    let key = registry_key(23);
    let good = arena_with(1, 5);
    let good_bytes = artifact::encode_arena(&key, &good);
    let path = PathBuf::from("reg/x.dxa");
    let dest = artifact::quarantine_path(&path);

    let disk = Arc::new(MemIo::new());
    // A torn-but-applied write left garbage... simulate poison directly.
    disk.write(&path, POISON).unwrap();
    assert!(artifact::load_arena_with(&*disk, &path).is_err());

    // The mine step runs between the quarantine and the rebuild.
    let resolved = artifact::resolve_lattice(&*disk, &path, &key, || {
        assert!(!disk.exists(&path), "slot freed");
        assert!(disk.exists(&dest), "poisoned bytes kept for forensics");
        Ok::<_, ()>(arena_with(1, 5))
    })
    .unwrap();
    assert_eq!(resolved.warnings.len(), 1, "{:?}", resolved.warnings);
    assert!(
        resolved.warnings[0].contains(&format!("quarantined to {}", dest.display())),
        "{:?}",
        resolved.warnings
    );
    assert_eq!(disk.contents(&dest).unwrap(), POISON);

    assert_eq!(disk.contents(&path).unwrap(), good_bytes);
    let (loaded_key, loaded) = artifact::load_arena_with(&*disk, &path).unwrap();
    assert_eq!(loaded_key, key);
    assert_eq!(loaded.len(), good.len());
}
