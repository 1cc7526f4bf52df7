//! Streams shared by the engine's integration tests.

use memdos_engine::chaos::{FaultPlan, FaultPlanConfig};
use memdos_engine::demo::{demo_jsonl, DemoLayout};

/// The chaos layout `tests/engine_chaos_determinism.rs` replays.
pub const CHAOS_LAYOUT: DemoLayout = DemoLayout {
    profile_ticks: 400,
    benign_ticks: 100,
    attack_ticks: 100,
    tail_ticks: 50,
};

/// The chaos stream as one byte stream, with the framer's hard cases
/// spliced into its middle: garbage, a truncated record fused with a
/// healthy one, invalid UTF-8 in front of a record, an escaped tenant
/// name (`vm\u002d9` decodes to `vm-9`), a whitespace-only line and a
/// close; it ends on an unterminated line.
pub fn dirty_reader_stream() -> Vec<u8> {
    let clean = demo_jsonl(0xC0DE, &CHAOS_LAYOUT, 2);
    let (chaotic, _) =
        FaultPlan::apply(7, FaultPlanConfig::chaos(), &clean).expect("chaos rates are valid");
    let mut dirty: Vec<&[u8]> = vec![
        b"not json at all",
        b"{\"tenant\":\"vm-9\",\"acc{\"tenant\":\"vm-9\",\"access\":1,\"miss\":2}",
        b"\xff\xfe{\"tenant\":\"vm-9\",\"access\":3,\"miss\":4}",
        b"{\"tenant\":\"vm\\u002d9\",\"access\":7,\"miss\":3}",
        b" \t \r",
        b"{\"tenant\":\"vm-9\",\"ctl\":\"close\"}",
    ];
    let mid = chaotic.len() / 2;
    let mut bytes = Vec::new();
    for (i, line) in chaotic.iter().enumerate() {
        if i == mid {
            for extra in dirty.drain(..) {
                bytes.extend_from_slice(extra);
                bytes.push(b'\n');
            }
        }
        bytes.extend_from_slice(line.as_bytes());
        bytes.push(b'\n');
    }
    bytes.extend_from_slice(b"{\"tenant\":\"vm-9\",\"access\":5,\"miss\":6}");
    bytes
}
