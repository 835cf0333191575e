//! Property tests for the WAL wire format: encode/decode round-trips
//! over arbitrary record sequences, and torn-tail truncation at every
//! generated cut point — the on-device invariants crash recovery leans
//! on (`decode_log` never fabricates a record, never loses a whole one
//! that was fully flushed).

use proptest::prelude::*;
use rdma_sim::wal::record::{decode_log, WalRecord};

fn record_strategy() -> impl Strategy<Value = WalRecord> {
    prop_oneof![
        (0u64..1 << 24, prop::collection::vec(0u8..=255, 0..96))
            .prop_map(|(offset, data)| WalRecord::PoolWrite { offset, data }),
        (8u64..1 << 30).prop_map(|next| WalRecord::PoolAllocTo { next }),
        (0u64..u64::MAX, 0u64..u64::MAX)
            .prop_map(|(key, value)| WalRecord::TreeUpsert { key, value }),
        (0u64..u64::MAX, 0u64..u64::MAX)
            .prop_map(|(key, value)| WalRecord::TreeInsert { key, value }),
        (0u64..u64::MAX).prop_map(|key| WalRecord::TreeDelete { key }),
    ]
}

fn encode_all(records: &[WalRecord]) -> (Vec<u8>, Vec<usize>) {
    let mut log = Vec::new();
    let mut ends = Vec::new();
    for (i, rec) in records.iter().enumerate() {
        log.extend_from_slice(&rec.encode(i as u64 + 1));
        ends.push(log.len());
    }
    (log, ends)
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 64,
        ..ProptestConfig::default()
    })]

    #[test]
    fn arbitrary_logs_round_trip(
        records in prop::collection::vec(record_strategy(), 0..40),
    ) {
        let (log, _) = encode_all(&records);
        let decoded = decode_log(&log);
        prop_assert_eq!(decoded.valid_bytes, log.len());
        prop_assert_eq!(decoded.torn_bytes, 0);
        prop_assert_eq!(decoded.records.len(), records.len());
        for (i, (lsn, rec)) in decoded.records.iter().enumerate() {
            prop_assert_eq!(*lsn, i as u64 + 1);
            prop_assert_eq!(rec, &records[i]);
        }
    }

    #[test]
    fn torn_tails_keep_exactly_the_flushed_prefix(
        records in prop::collection::vec(record_strategy(), 1..20),
        cut_frac in 0.0f64..1.0,
    ) {
        // A crash mid-flush persists a byte-accurate prefix; the decoder
        // must keep every record fully inside the prefix and nothing of
        // the record straddling the cut.
        let (log, ends) = encode_all(&records);
        let cut = ((log.len() as f64) * cut_frac) as usize;
        let decoded = decode_log(&log[..cut]);
        let survivors = ends.iter().filter(|&&e| e <= cut).count();
        prop_assert_eq!(decoded.records.len(), survivors);
        prop_assert_eq!(decoded.valid_bytes + decoded.torn_bytes, cut);
        for (i, (_, rec)) in decoded.records.iter().enumerate() {
            prop_assert_eq!(rec, &records[i]);
        }
    }

    #[test]
    fn corruption_never_yields_a_wrong_record(
        records in prop::collection::vec(record_strategy(), 1..20),
        flip_frac in 0.0f64..1.0,
        flip_bit in 0u8..8,
    ) {
        // Flip one bit anywhere: decoding may stop early, but every
        // record it does return must match the original sequence
        // verbatim (CRCs make silent corruption astronomically unlikely;
        // with FNV-1a a single bit flip is always caught).
        let (mut log, _) = encode_all(&records);
        let pos = (((log.len() - 1) as f64) * flip_frac) as usize;
        log[pos] ^= 1 << flip_bit;
        let decoded = decode_log(&log);
        prop_assert!(decoded.records.len() <= records.len());
        for (i, (_, rec)) in decoded.records.iter().enumerate() {
            prop_assert_eq!(rec, &records[i]);
        }
    }
}
