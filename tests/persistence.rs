//! Acceptance tests for the zero-copy persistence subsystem: for all 13
//! named layouts, `SearchTree::save` → `SearchTree::open` must serve a
//! tree that is indistinguishable from the in-memory backends (same
//! keys, same positions, same checksums, full ordered surface against
//! oracles) — and every way a file can be corrupt, truncated or
//! mismatched must surface as a typed `cobtree::Error`, never a panic.

use cobtree::core::fat::FatLayout;
use cobtree::core::format::{self, FixedKey};
use cobtree::core::io::ScratchDir;
use cobtree::core::{EdgeWeights, NamedLayout};
use cobtree::{Error, LayoutSource, SaveOptions, SearchBackend, SearchTree, Storage};
use proptest::prelude::*;

/// The acceptance criterion: a saved-and-reopened tree passes the point
/// and ordered oracles for every named layout, with batch checksums
/// identical to every in-memory storage backend.
#[test]
fn saved_files_serve_identically_for_every_layout() {
    let keys: Vec<u64> = (0..500u64).map(|k| k * 11 + (k % 5)).collect();
    let probes: Vec<u64> = (0..6000u64).step_by(7).chain([0, 1, u64::MAX]).collect();
    let dir = ScratchDir::new("persist-layouts");
    for layout in NamedLayout::ALL {
        let in_memory: Vec<SearchTree<u64>> = Storage::ALL
            .iter()
            .map(|&storage| {
                SearchTree::builder()
                    .layout(layout)
                    .storage(storage)
                    .keys(keys.iter().copied())
                    .build()
                    .expect("build")
            })
            .collect();
        let path = dir.path().join(format!("{}.cobt", layout.label()));
        in_memory[1]
            .write_file(&path, &SaveOptions::new())
            .expect("save");
        let served: SearchTree<u64> = SearchTree::open(&path).expect("open");
        std::fs::remove_file(&path).expect("cleanup");

        assert_eq!(served.storage(), Storage::Mapped);
        assert_eq!(served.len(), keys.len() as u64);
        assert_eq!(served.layout_label(), layout.label(), "label round-trips");

        let reference = in_memory[0].search_batch_checksum(&probes);
        for t in &in_memory {
            assert_eq!(t.search_batch_checksum(&probes), reference, "{layout}");
        }
        assert_eq!(
            served.search_batch_checksum(&probes),
            reference,
            "{layout}: mapped checksum diverged"
        );

        // Ordered oracle sweep on the served tree.
        for &p in &probes {
            let lb = keys.partition_point(|&k| k < p);
            assert_eq!(served.rank(p), lb as u64, "{layout} rank({p})");
            assert_eq!(served.lower_bound(p), keys.get(lb).copied(), "{layout}");
            let ub = keys.partition_point(|&k| k <= p);
            assert_eq!(served.upper_bound(p), keys.get(ub).copied(), "{layout}");
        }
        let scanned: Vec<u64> = served.iter().collect();
        assert_eq!(scanned, keys, "{layout} full scan over the file");
        let window: Vec<u64> = served.range(keys[100]..=keys[160]).collect();
        assert_eq!(&window[..], &keys[100..=160], "{layout} range over file");

        // Traced descents over the file equal the in-memory implicit
        // backend's node for node — that's what makes cache replay over
        // mapped storage meaningful.
        let (mut a, mut b) = (Vec::new(), Vec::new());
        for &p in probes.iter().take(60) {
            a.clear();
            b.clear();
            assert_eq!(
                served.search_traced(p, &mut a),
                in_memory[1].search_traced(p, &mut b)
            );
            assert_eq!(a, b, "{layout} trace({p})");
        }
    }
}

/// An in-memory image (`Storage::Implicit`) is the file the explicit
/// tree encodes: byte-identical `encode` output, the same position for
/// every rank and the same batch checksums — for every binary named
/// layout, every fat layout, a weighted and a materialized source, at
/// key counts on both sides of each height boundary.
#[test]
fn implicit_images_match_explicit_trees_for_every_source() {
    let mut state = 0x1A5E_ED00_u64;
    let mut next = move || {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        state >> 33
    };
    let mut counts = vec![1u64, 2, 3];
    for k in [2u32, 5, 9] {
        counts.extend([(1 << k) - 1, 1 << k, (1 << k) + 1]);
    }
    counts.push(1 + next() % 3_000);
    for n in counts {
        let mut key = 0u64;
        let keys: Vec<u64> = (0..n)
            .map(|_| {
                key += 1 + next() % 9;
                key
            })
            .collect();
        let probes: Vec<u64> = (0..=key + 2).collect();
        let height = 64 - n.leading_zeros();
        let hot: Vec<u64> = (0..(1u64 << height) - 1).map(|r| 1 + r % 7 * 40).collect();
        let sources = NamedLayout::ALL
            .iter()
            .map(|&l| LayoutSource::from(l))
            .chain(FatLayout::ALL.iter().map(|&l| LayoutSource::from(l)))
            .chain([
                LayoutSource::from(NamedLayout::MinWep)
                    .with_weights(EdgeWeights::from_access_counts(&hot)),
                LayoutSource::from(NamedLayout::HalfWep.materialize(height)),
            ]);
        for source in sources {
            let build = |storage| {
                SearchTree::builder()
                    .layout(source.clone())
                    .storage(storage)
                    .keys(keys.iter().copied())
                    .build()
                    .expect("build")
            };
            let (image, explicit) = (build(Storage::Implicit), build(Storage::Explicit));
            let case = format!("{source:?} n={n}");
            assert!(
                image.encode(&SaveOptions::new()).expect("encode")
                    == explicit.encode(&SaveOptions::new()).expect("encode"),
                "{case}: encoded bytes differ"
            );
            for rank in 1..=image.capacity() {
                assert_eq!(
                    image.position_of_rank(rank),
                    explicit.position_of_rank(rank),
                    "{case} rank {rank}"
                );
            }
            assert_eq!(
                image.search_batch_checksum(&probes),
                explicit.search_batch_checksum(&probes),
                "{case}"
            );
        }
    }
}

/// Non-default block alignments and non-u64 key types round-trip.
#[test]
fn alignments_and_key_types_round_trip() {
    for block in [64u64, 512, 4096] {
        let tree = SearchTree::builder()
            .keys((1..=200u64).map(|k| k * 3))
            .build()
            .expect("build");
        let image = tree
            .encode(&SaveOptions::new().block_bytes(block))
            .expect("encode");
        let geometry = format::parse(&image).expect("parse");
        assert_eq!(geometry.block_bytes, block);
        assert_eq!(geometry.keys.0 as u64 % block, 0, "key region aligned");
        let served: SearchTree<u64> = SearchTree::open_bytes(image).expect("open");
        assert!(served.contains(300) && !served.contains(301));
    }

    // Signed keys keep their order through the byte encoding.
    let keys: Vec<i64> = (-100..=100).map(|k| k * 7).collect();
    let tree = SearchTree::builder()
        .layout(NamedLayout::MinWep)
        .keys(keys.iter().copied())
        .build()
        .expect("build");
    let served: SearchTree<i64> =
        SearchTree::open_bytes(tree.encode(&SaveOptions::new()).unwrap()).unwrap();
    let all: Vec<i64> = served.iter().collect();
    assert_eq!(all, keys);
    assert_eq!(served.predecessor(-699), Some(-700));
    assert_eq!(served.lower_bound(1), Some(7));

    // u32 keys carry a distinct tag; opening under u64 is typed.
    let tree32 = SearchTree::builder()
        .keys((1..=50u32).map(|k| k * 2))
        .build()
        .expect("build");
    let image = tree32.encode(&SaveOptions::new()).unwrap();
    assert_eq!(
        SearchTree::<u64>::open_bytes(image.clone()).unwrap_err(),
        Error::KeyTypeMismatch {
            expected: <u64 as FixedKey>::TAG,
            got: <u32 as FixedKey>::TAG
        }
    );
    let served32: SearchTree<u32> = SearchTree::open_bytes(image).unwrap();
    assert_eq!(served32.iter().count(), 50);
}

/// Every prefix of a valid file fails typed; every single-byte
/// corruption fails typed or — if it strikes padding inside a region
/// covered by neither checksum (there is none) — yields a tree that
/// still validates. No code path may panic on untrusted bytes.
#[test]
fn truncations_and_corruptions_never_panic() {
    let tree = SearchTree::builder()
        .layout(NamedLayout::HalfWep) // generic-indexer layout → exercises both kinds
        .keys((1..=60u64).map(|k| k * 9))
        .build()
        .expect("build");
    let image = tree.encode(&SaveOptions::new()).expect("encode");

    // Truncations: every prefix must fail with a typed error.
    for len in 0..image.len() {
        match SearchTree::<u64>::open_bytes(image[..len].to_vec()) {
            Err(Error::Truncated { .. } | Error::ChecksumMismatch { .. }) => {}
            other => panic!("prefix {len}: expected typed failure, got {other:?}"),
        }
    }

    // Single-byte flips across the whole file: typed error, never panic
    // (the header/content checksums catch everything).
    for at in (0..image.len()).step_by(13) {
        let mut corrupt = image.clone();
        corrupt[at] ^= 0x40;
        match SearchTree::<u64>::open_bytes(corrupt) {
            Err(_) => {}
            Ok(_) => panic!("byte {at}: corruption accepted"),
        }
    }

    // A future format version is refused up front.
    let mut future = image.clone();
    future[4..6].copy_from_slice(&(format::VERSION + 1).to_le_bytes());
    format::seal_header_hash(&mut future);
    assert_eq!(
        SearchTree::<u64>::open_bytes(future).unwrap_err(),
        Error::UnsupportedVersion {
            got: format::VERSION + 1,
            supported: format::VERSION
        }
    );

    // Foreign files are recognized as such.
    assert!(matches!(
        SearchTree::<u64>::open_bytes(b"PK\x03\x04not a tree".to_vec()).unwrap_err(),
        Error::BadMagic { .. }
    ));

    // Opening a missing path is a typed I/O error.
    let dir = ScratchDir::new("persist-missing");
    assert!(matches!(
        SearchTree::<u64>::open(dir.path().join("absent.cobt")).unwrap_err(),
        Error::Io { .. }
    ));
}

/// Fat-node files (format v2, header arity > 0) under hostile bytes:
/// every truncation and every probed bit flip fails typed, and every
/// node-geometry violation — zeroed/invalid/inconsistent arity, version
/// downgrades, reserved-byte abuse — is a typed decode error. Never a
/// panic. Re-sealing the header hash after each mutation ensures the
/// *geometry* validation is what rejects the file, not the checksum.
#[test]
fn fat_geometry_fuzz_never_panics() {
    use cobtree::core::fat::{FatLayout, FatOrder};

    let tree = SearchTree::builder()
        .layout(FatLayout::new(FatOrder::Veb, 8).unwrap())
        .storage(Storage::Implicit)
        .keys((1..=60u64).map(|k| k * 9))
        .build()
        .expect("build");
    let image = tree.encode(&SaveOptions::new()).expect("encode");
    assert_eq!(image[10], 8, "header byte 10 carries the arity");

    // Truncations: typed failures on every prefix.
    for len in 0..image.len() {
        match SearchTree::<u64>::open_bytes(image[..len].to_vec()) {
            Err(Error::Truncated { .. } | Error::ChecksumMismatch { .. }) => {}
            other => panic!("prefix {len}: expected typed failure, got {other:?}"),
        }
    }

    // Bit flips across the file: typed error, never a panic.
    for at in (0..image.len()).step_by(11) {
        for bit in [0x01u8, 0x80] {
            let mut corrupt = image.clone();
            corrupt[at] ^= bit;
            if SearchTree::<u64>::open_bytes(corrupt).is_ok() {
                panic!("byte {at} bit {bit:#x}: corruption accepted");
            }
        }
    }

    // Geometry-field mutations with a valid header checksum: the
    // node-geometry validation itself must reject the bytes.
    let reseal = |f: &mut Vec<u8>| {
        format::seal_content_hash(f);
        format::seal_header_hash(f);
    };
    // Every possible arity byte other than the true one: zero (binary,
    // contradicting the FAT label), non-powers of two, out-of-range
    // powers, and valid-but-inconsistent arities (key region and label
    // no longer agree). 255 covers the "arity way out of range" edge.
    for arity in (0..=255u8).filter(|&a| a != 8) {
        let mut f = image.clone();
        f[10] = arity;
        reseal(&mut f);
        match SearchTree::<u64>::open_bytes(f) {
            Err(Error::Malformed { .. } | Error::UnknownLayout { .. }) => {}
            other => panic!("arity {arity}: expected geometry rejection, got {other:?}"),
        }
    }
    // Downgrading to v1 while the arity byte is set: v1 has no geometry
    // fields, so the reserved bytes must read zero.
    let mut v1 = image.clone();
    v1[4..6].copy_from_slice(&1u16.to_le_bytes());
    reseal(&mut v1);
    assert!(matches!(
        SearchTree::<u64>::open_bytes(v1).unwrap_err(),
        Error::Malformed { .. }
    ));
    // Reserved byte 11 must stay zero on either version.
    let mut reserved = image.clone();
    reserved[11] = 1;
    reseal(&mut reserved);
    assert!(matches!(
        SearchTree::<u64>::open_bytes(reserved).unwrap_err(),
        Error::Malformed { .. }
    ));
    // The unmutated image still opens — the mutations above, not some
    // unrelated defect, drove the rejections.
    assert!(SearchTree::<u64>::open_bytes(image).is_ok());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(26))]

    /// Round-trip save → open → checksum equality for arbitrary key
    /// sets over every named layout and both descriptor kinds (named
    /// builder source and materialized-table source).
    #[test]
    fn round_trip_checksums_match_in_memory(
        layout in proptest::sample::select(NamedLayout::ALL.to_vec()),
        raw in proptest::collection::btree_set(0u64..1_000_000, 1..400),
        probes in proptest::collection::vec(0u64..1_100_000, 64),
        materialized_bit in 0u32..2,
        block_exp in 6u32..13,
    ) {
        let materialized = materialized_bit == 1;
        let keys: Vec<u64> = raw.into_iter().collect();
        let builder = SearchTree::builder()
            .storage(Storage::Implicit)
            .keys(keys.iter().copied());
        let built = if materialized {
            // Force the table descriptor kind via a materialized source
            // of the exact padded height.
            let mut height = 1u32;
            while ((1u64 << height) - 1) < keys.len() as u64 {
                height += 1;
            }
            builder.layout(layout.materialize(height)).build().expect("build")
        } else {
            builder.layout(layout).build().expect("build")
        };
        let image = built.encode(&SaveOptions::new().block_bytes(1u64 << block_exp)).expect("encode");
        let served: SearchTree<u64> = SearchTree::open_bytes(image).expect("open");
        prop_assert_eq!(served.len(), keys.len() as u64);
        prop_assert_eq!(
            served.search_batch_checksum(&probes),
            built.search_batch_checksum(&probes)
        );
        for &p in &probes {
            prop_assert_eq!(served.search(p), built.search(p), "{} probe {}", layout, p);
        }
        let all: Vec<u64> = served.iter().collect();
        prop_assert_eq!(all, keys);
    }
}
