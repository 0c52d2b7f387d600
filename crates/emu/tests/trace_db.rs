//! Trace-store integration: corruption, versioning and concurrent-writer
//! behavior of [`TraceDb`] through its public API. The rule under test is
//! "ignored, never trusted": any file the current build did not (or could
//! not have) written must make [`TraceDb::load`] miss — cleanly, with a
//! precise rejection reason from [`TraceDb::load_full`] — so callers fall
//! back to re-emulation instead of simulating garbage.

use std::path::{Path, PathBuf};

use rcmc_emu::{trace_program, DynInsn, StaticInsn, Trace, TraceDb, TraceDbError, TraceRec};
use rcmc_isa::{Insn, Opcode, Program, Reg};

fn temp_db(tag: &str) -> (TraceDb, PathBuf) {
    let dir = std::env::temp_dir().join(format!("rcmc-tracedb-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    (TraceDb::at(dir.clone()), dir)
}

/// A small program with control flow and memory traffic: a loop that
/// stores then reloads a counter.
fn looped_program(iters: i32) -> Program {
    let r = |x| Some(Reg::int(x));
    let insns = vec![
        Insn::new(Opcode::Movi, r(1), None, None, iters),
        Insn::new(Opcode::Movi, r(2), None, None, 0x1000),
        // loop body (pc 2..5)
        Insn::new(Opcode::St, None, r(2), r(1), 0),
        Insn::new(Opcode::Ld, r(3), r(2), None, 0),
        Insn::new(Opcode::Addi, r(1), r(1), None, -1),
        Insn::new(Opcode::Bne, None, r(1), r(0), -4),
        Insn::halt(),
    ];
    Program {
        insns,
        data: vec![],
        entry: 0,
    }
}

fn sample(iters: i32) -> Trace {
    trace_program(&looped_program(iters), 100_000).expect("test program emulates")
}

/// The one file of `name`, for surgical corruption.
fn file_of(dir: &Path, name: &str) -> PathBuf {
    dir.join(format!("{name}.trc"))
}

#[test]
fn round_trip_through_the_filesystem() {
    let (db, dir) = temp_db("roundtrip");
    let t = sample(50);
    assert!(db.save("loop", 7777, &t));
    let back = db.load_full("loop", 7777).expect("fresh save loads");
    assert_eq!(back, t);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_header_is_ignored() {
    let (db, dir) = temp_db("badmagic");
    let t = sample(10);
    assert!(db.save("w", 100, &t));
    let p = file_of(&dir, "w");
    let mut bytes = std::fs::read(&p).unwrap();
    bytes[3] ^= 0xff; // magic
    std::fs::write(&p, &bytes).unwrap();
    assert_eq!(db.load_full("w", 100).unwrap_err(), TraceDbError::BadMagic);
    assert!(db.load("w", 100).is_none(), "corrupt file must miss");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn wrong_versions_are_ignored() {
    let (db, dir) = temp_db("versions");
    let t = sample(10);
    for (off, expect_err) in [
        (8usize, TraceDbError::WrongFormatVersion(99)),
        (12usize, TraceDbError::WrongTraceVersion(99)),
    ] {
        assert!(db.save("w", 100, &t));
        let p = file_of(&dir, "w");
        let mut bytes = std::fs::read(&p).unwrap();
        bytes[off] = 99; // low byte of the little-endian version word
        std::fs::write(&p, &bytes).unwrap();
        assert_eq!(db.load_full("w", 100).unwrap_err(), expect_err);
        assert!(db.load("w", 100).is_none(), "stale version must miss");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn truncated_payload_is_ignored() {
    let (db, dir) = temp_db("trunc");
    let t = sample(10);
    assert!(db.save("w", 100, &t));
    let p = file_of(&dir, "w");
    let full = std::fs::read(&p).unwrap();
    // Chop mid-payload, mid-record, and into the header.
    for keep in [full.len() - 32, full.len() - 7, 40] {
        std::fs::write(&p, &full[..keep]).unwrap();
        assert_eq!(
            db.load_full("w", 100).unwrap_err(),
            TraceDbError::Truncated,
            "keep={keep}"
        );
        assert!(db.load("w", 100).is_none());
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn payload_bitflip_fails_the_checksum() {
    let (db, dir) = temp_db("cksum");
    let t = sample(10);
    assert!(db.save("w", 100, &t));
    let p = file_of(&dir, "w");
    let mut bytes = std::fs::read(&p).unwrap();
    // Flip a bit in a record's reserved word: the decoder ignores those
    // bytes, so only the checksum stands between this file and a bogus
    // "valid" load.
    let n = bytes.len();
    bytes[n - 1] ^= 0x01;
    std::fs::write(&p, &bytes).unwrap();
    assert_eq!(
        db.load_full("w", 100).unwrap_err(),
        TraceDbError::ChecksumMismatch
    );
    assert!(db.load("w", 100).is_none());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn mismatched_key_is_ignored() {
    let (db, dir) = temp_db("key");
    let t = sample(10);
    assert!(db.save("w", 100, &t));
    // Copy the file under a different name, and ask for another length:
    // both must miss.
    std::fs::copy(file_of(&dir, "w"), file_of(&dir, "stolen")).unwrap();
    assert_eq!(
        db.load_full("stolen", 100).unwrap_err(),
        TraceDbError::KeyMismatch
    );
    assert_eq!(
        db.load_full("w", 200).unwrap_err(),
        TraceDbError::KeyMismatch
    );
    // And neither shows up in the catalog.
    assert_eq!(db.list().len(), 1);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Writers racing on one key must never produce a torn file: whatever the
/// interleaving, the store ends up with exactly one file that validates
/// and equals one racer's payload in full.
#[test]
fn concurrent_writers_leave_one_valid_file() {
    let (db, dir) = temp_db("race");
    let a = sample(40);
    let b = sample(90);
    assert_ne!(a, b);
    std::thread::scope(|s| {
        for i in 0..8 {
            let db = db.clone();
            let t = if i % 2 == 0 { &a } else { &b };
            s.spawn(move || {
                for _ in 0..20 {
                    assert!(db.save("hot", 500, t));
                }
            });
        }
    });
    let winner = db
        .load_full("hot", 500)
        .expect("racers must not tear the file");
    assert!(
        winner == a || winner == b,
        "stored trace must be one racer's payload, whole"
    );
    assert_eq!(db.list().len(), 1);
    // No temp droppings left behind.
    let leftovers: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .flatten()
        .filter(|e| !e.file_name().to_string_lossy().ends_with(".trc"))
        .collect();
    assert!(leftovers.is_empty(), "stray temp files: {leftovers:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Byte offset of the payload in a trace file whose name is `name`.
fn payload_off(name: &str) -> usize {
    (64 + name.len()).div_ceil(32) * 32
}

/// The format-v1 image of a v2 image: the same header with format version
/// 1, and every zero-run-compressed record expanded back to its four flat
/// words. The checksum covers the logical words, so it carries over.
fn v1_of(v2: &[u8], name: &str) -> Vec<u8> {
    let off = payload_off(name);
    let mut out = v2[..off].to_vec();
    out[8..12].copy_from_slice(&1u32.to_le_bytes());
    let mut rest = &v2[off..];
    while let Some((&ctl, tail)) = rest.split_first() {
        rest = tail;
        for w in 0..4 {
            if ctl & (1 << w) != 0 {
                out.extend_from_slice(&rest[..8]);
                rest = &rest[8..];
            } else {
                out.extend_from_slice(&[0; 8]);
            }
        }
    }
    out
}

/// One file, one verdict: whichever reader meets a damaged image —
/// `load_full` or `import` — rejects it for the same reason, and good v1
/// and v2 images load and import to the same trace.
#[test]
fn every_reader_gives_one_file_the_same_verdict() {
    let (db, dir) = temp_db("verdict");
    let (import_db, import_dir) = temp_db("verdict-import");
    let t = sample(10);
    assert!(db.save("w", 100, &t));
    let p = file_of(&dir, "w");
    let v2 = std::fs::read(&p).unwrap();
    let v1 = v1_of(&v2, "w");
    let off = payload_off("w");
    let edit = |f: &dyn Fn(&mut Vec<u8>)| {
        let mut b = v2.clone();
        f(&mut b);
        b
    };

    let cases: Vec<(&str, Vec<u8>, TraceDbError)> = vec![
        (
            "text file",
            b"this is a plain text file, not a trace at all\n".repeat(3),
            TraceDbError::BadMagic,
        ),
        ("bad magic", edit(&|b| b[3] ^= 0xff), TraceDbError::BadMagic),
        (
            "format version",
            edit(&|b| b[8] = 99),
            TraceDbError::WrongFormatVersion(99),
        ),
        (
            "trace version",
            edit(&|b| b[12] = 99),
            TraceDbError::WrongTraceVersion(99),
        ),
        (
            "truncated header",
            v2[..40].to_vec(),
            TraceDbError::Truncated,
        ),
        (
            "payload cut mid-record",
            v2[..v2.len() - 7].to_vec(),
            TraceDbError::Truncated,
        ),
        (
            "trailing byte",
            edit(&|b| b.push(0)),
            TraceDbError::Truncated,
        ),
        (
            "reserved control bit",
            edit(&|b| b[off] |= 0x80),
            TraceDbError::BadRecord(0),
        ),
        (
            // Record 0's `movi r1, 10` becomes a `nop` with a destination:
            // a known opcode whose operand signature does not hold.
            "operand signature",
            edit(&|b| b[off + 1] = Opcode::Nop as u8),
            TraceDbError::BadRecord(0),
        ),
        (
            "payload bit flip",
            edit(&|b| *b.last_mut().unwrap() ^= 0x01),
            TraceDbError::ChecksumMismatch,
        ),
        (
            "truncated v1 image",
            v1[..v1.len() - 32].to_vec(),
            TraceDbError::Truncated,
        ),
    ];
    for (what, image, want) in &cases {
        std::fs::write(&p, image).unwrap();
        assert_eq!(
            db.load_full("w", 100).unwrap_err(),
            *want,
            "{what}: load_full"
        );
        assert!(db.load("w", 100).is_none(), "{what}: load");
        assert_eq!(
            import_db.import(image, None, |_| false).unwrap_err(),
            *want,
            "{what}: import"
        );
    }
    assert!(
        import_db.list().is_empty(),
        "a rejected import writes nothing"
    );

    // A good file under the wrong key: only keyed readers can tell.
    std::fs::write(&p, &v2).unwrap();
    std::fs::copy(&p, file_of(&dir, "stolen")).unwrap();
    for (name, len) in [("stolen", 100), ("w", 200)] {
        assert_eq!(
            db.load_full(name, len).unwrap_err(),
            TraceDbError::KeyMismatch
        );
    }

    // Good images of both layouts: same trace through every reader, and
    // import stores the v2 image whichever layout it was handed.
    for (what, image) in [("v1", &v1), ("v2", &v2)] {
        std::fs::write(&p, image).unwrap();
        let back = db.load_full("w", 100).unwrap();
        assert_eq!(back, t, "{what}: load_full");
        let meta = import_db.import(image, None, |_| false).unwrap();
        assert_eq!((meta.name.as_str(), meta.len), ("w", 100), "{what}");
        let imported = import_db.load_full("w", 100).unwrap();
        assert_eq!(imported, t, "{what}: import");
        assert_eq!(std::fs::read(file_of(&import_dir, "w")).unwrap(), v2);
    }
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&import_dir);
}

/// A trace built record by record: `recs` are `(static index, next_pc,
/// mem_addr)` over `statics`, with `static_insns` as the header's claim.
fn hand_built(statics: Vec<StaticInsn>, recs: &[(u32, u32, u64)], static_insns: usize) -> Trace {
    let mut t = Trace::new(statics, false, static_insns);
    for &(sid, next_pc, mem_addr) in recs {
        t.push(TraceRec {
            sid,
            next_pc,
            mem_addr,
        })
        .expect("sid in the table");
    }
    t
}

/// One pc, two instructions: a file the emulator never writes (its pcs
/// index one program), but an imported trace can hold, e.g. from
/// self-modifying or overlaid code.
fn conflicting_pcs() -> Trace {
    let r = |x| Some(Reg::int(x));
    let at = |pc, insn| StaticInsn { insn, pc };
    let statics = vec![
        at(5, Insn::new(Opcode::Addi, r(1), r(1), None, -1)),
        at(5, Insn::new(Opcode::Movi, r(2), None, None, 9)),
        at(6, Insn::new(Opcode::Ld, r(3), r(2), None, 0)),
    ];
    let recs = [
        (0, 5, 0),
        (1, 6, 0),
        (2, 5, 0x40),
        (1, 6, 0),
        (0, 5, 0),
        (2, 5, 0x48),
    ];
    hand_built(statics, &recs, 7)
}

/// Sparse pcs at the top of the address space (one of them holding two
/// instructions), addresses past 2^32, and a header claiming `u32::MAX`
/// static instructions.
fn sparse_high_pcs() -> Trace {
    let r = |x| Some(Reg::int(x));
    let top = u32::MAX;
    let at = |pc, insn| StaticInsn { insn, pc };
    let statics = vec![
        at(top, Insn::new(Opcode::Ld, r(3), r(2), None, 8)),
        at(top - 1, Insn::new(Opcode::Jal, r(31), None, None, -6)),
        at(top - 7, Insn::new(Opcode::St, None, r(2), r(3), 0)),
        at(0, Insn::nop()),
        at(top, Insn::new(Opcode::Addi, r(2), r(2), None, 8)),
    ];
    let recs = [
        (2, top, 0xffff_ffff_fff8),
        (0, 0, 1 << 40),
        (3, top - 1, 0),
        (0, top - 7, u64::MAX - 7),
        (1, top - 7, 0),
        (4, top, 0),
        (2, top, 8),
    ];
    hand_built(statics, &recs, u32::MAX as usize)
}

/// Byte offsets of every v2 record in a trace image whose name is `name`.
fn record_offsets(image: &[u8], name: &str) -> Vec<usize> {
    let mut offs = Vec::new();
    let mut at = payload_off(name);
    while at < image.len() {
        offs.push(at);
        at += 1 + image[at].count_ones() as usize * 8;
    }
    offs
}

/// Imported traces the emulator could not have produced decode to the
/// same logical stream and checksum through every reader, and a damaged
/// copy of each gets one verdict from all of them — a bad instruction word
/// reported at the record that carries it, even where the record repeats a
/// (pc, instruction) pair seen before the damage.
#[test]
fn hostile_imports_decode_to_the_same_stream() {
    for (what, t) in [
        ("one pc, two insns", conflicting_pcs()),
        ("sparse high pcs", sparse_high_pcs()),
    ] {
        let (src, src_dir) = temp_db("hostile-src");
        let (db, dir) = temp_db("hostile");
        assert!(src.save("ext", 64, &t), "{what}");
        let image = std::fs::read(file_of(&src_dir, "ext")).unwrap();
        let meta = db.import(&image, None, |_| false).unwrap();
        assert_eq!((meta.name.as_str(), meta.len), ("ext", 64), "{what}");
        let want: Vec<DynInsn> = t.iter().collect();
        let back = db.load_full("ext", 64).unwrap();
        assert_eq!(back.iter().collect::<Vec<_>>(), want, "{what}: load_full");
        assert_eq!(back, t, "{what}");
        assert_eq!(*db.load("ext", 64).unwrap(), t, "{what}: load");
        // Distinct (pc, insn) pairs stay distinct after interning.
        assert_eq!(back.statics().len(), t.statics().len(), "{what}");
        // Re-encoding the decoded trace gives the same file, checksum
        // included.
        assert_eq!(
            std::fs::read(file_of(&dir, "ext")).unwrap(),
            image,
            "{what}"
        );

        let recs = record_offsets(&image, "ext");
        assert_eq!(recs.len(), t.len());
        let edit = |f: &dyn Fn(&mut Vec<u8>)| {
            let mut b = image.clone();
            f(&mut b);
            b
        };
        let cases = [
            // Opcode byte (the first word's low byte) of record 3, whose
            // pair already appeared undamaged.
            (edit(&|b| b[recs[3] + 1] = 0xee), TraceDbError::BadRecord(3)),
            (edit(&|b| b[recs[1]] |= 0x80), TraceDbError::BadRecord(1)),
            (
                edit(&|b| *b.last_mut().unwrap() ^= 0x01),
                TraceDbError::ChecksumMismatch,
            ),
            (image[..image.len() - 3].to_vec(), TraceDbError::Truncated),
        ];
        let p = file_of(&dir, "ext");
        let (bad_db, bad_dir) = temp_db("hostile-bad");
        for (k, (bad, want)) in cases.iter().enumerate() {
            std::fs::write(&p, bad).unwrap();
            assert_eq!(
                db.load_full("ext", 64).unwrap_err(),
                *want,
                "{what} #{k}: load_full"
            );
            assert!(db.load("ext", 64).is_none(), "{what} #{k}: load");
            assert_eq!(
                bad_db.import(bad, None, |_| false).unwrap_err(),
                *want,
                "{what} #{k}: import"
            );
        }
        assert!(
            bad_db.list().is_empty(),
            "{what}: a rejected import writes nothing"
        );
        for d in [src_dir, dir, bad_dir] {
            let _ = std::fs::remove_dir_all(d);
        }
    }
}

/// A name means one file: a later save under the same name replaces the
/// earlier one, whatever the lengths recorded in their headers.
#[test]
fn the_last_write_of_a_name_wins() {
    let (db, dir) = temp_db("lastwins");
    let of_len = |len: u64| trace_program(&looped_program(100), len as usize).unwrap();
    assert!(db.save("w", 200, &of_len(200)));
    assert!(db.save("w", 100, &of_len(100)));
    let open = db.open("w").unwrap().expect("w is stored");
    assert_eq!(open.load().unwrap(), of_len(100));
    let metas = db.list();
    assert_eq!(
        metas
            .iter()
            .map(|m| (m.name.as_str(), m.len))
            .collect::<Vec<_>>(),
        [("w", 100)]
    );
    assert_eq!(
        db.load_full("w", 200).unwrap_err(),
        TraceDbError::KeyMismatch
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every file under `dir` (recursively), by path relative to it, with its
/// bytes, sorted.
fn snapshot(dir: &Path) -> Vec<(PathBuf, Vec<u8>)> {
    let mut out = Vec::new();
    let mut todo = vec![dir.to_path_buf()];
    while let Some(d) = todo.pop() {
        for e in std::fs::read_dir(&d).unwrap().flatten() {
            if e.path().is_dir() {
                todo.push(e.path());
            } else {
                let rel = e.path().strip_prefix(dir).unwrap().to_path_buf();
                out.push((rel, std::fs::read(e.path()).unwrap()));
            }
        }
    }
    out.sort();
    out
}

/// A store in the old `<name>/<len>.trc` layout is migrated when it is
/// opened: each name keeps, as `<name>.trc`, the file a run of it read
/// before (the longest length whose header names that key), an existing
/// `<name>.trc` is kept instead, and no old directory remains. Opening the
/// store again changes nothing; opening a missing store creates nothing.
#[test]
fn an_old_layout_store_migrates_once_when_opened() {
    let (side, side_dir) = temp_db("migrate-side");
    let image = |name: &str, len: u64, iters: i32| {
        assert!(side.save(name, len, &sample(iters)));
        std::fs::read(file_of(&side_dir, name)).unwrap()
    };
    let old = [
        ("w/100.trc", image("w", 100, 10)),
        ("w/200.trc", image("w", 200, 20)),
        // Longest, but its header names another key: no run read it.
        ("w/300.trc", image("elsewhere", 300, 30)),
        ("v/50.trc", image("v", 50, 5)),
        ("v.trc", image("v", 60, 6)),
    ];
    let (_, dir) = temp_db("migrate");
    for (path, bytes) in &old {
        let p = dir.join(path);
        std::fs::create_dir_all(p.parent().unwrap()).unwrap();
        std::fs::write(&p, bytes).unwrap();
    }

    let db = TraceDb::at(dir.clone());
    let want = vec![
        (PathBuf::from("v.trc"), old[4].1.clone()),
        (PathBuf::from("w.trc"), old[1].1.clone()),
    ];
    assert_eq!(snapshot(&dir), want, "w.trc is the old w/200.trc");
    assert_eq!(*db.load("w", 200).unwrap(), sample(20));
    assert_eq!(*db.load("v", 60).unwrap(), sample(6));

    let _ = TraceDb::at(dir.clone());
    assert_eq!(snapshot(&dir), want, "a second open changes nothing");

    let missing = dir.join("missing");
    let _ = TraceDb::at(missing.clone());
    assert!(!missing.exists(), "opening a missing store creates it");
    for d in [dir, side_dir] {
        let _ = std::fs::remove_dir_all(d);
    }
}
