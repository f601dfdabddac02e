//! The interning extension of the engine-determinism contract: symbol
//! assignment is first-appearance order over the span sequence, so a
//! profile captured under `Parallelism::Fixed(4)` must produce the *same
//! symbol ids* and the *same `.xspb` bytes* as a `Serial` capture — the
//! binary interchange format inherits byte-level determinism from the
//! scheduler, exactly like the JSON formats before it.

use proptest::prelude::*;
use xsp_core::profile::{ProfileRequest, Xsp, XspConfig};
use xsp_core::scheduler::Parallelism;
use xsp_framework::FrameworkKind;
use xsp_gpu::systems;
use xsp_models::zoo;
use xsp_trace::export::{read_span_binary, spans_to_binary, SpanBinaryWriter};
use xsp_trace::SpanStore;

fn xsp_with(seed: u64, runs: usize, parallelism: Parallelism) -> Xsp {
    Xsp::new(
        XspConfig::new(systems::tesla_v100(), FrameworkKind::TensorFlow)
            .runs(runs)
            .seed(seed)
            .parallelism(parallelism),
    )
}

/// Ingests a profile's spans into a fresh store and returns the name
/// table's contents in symbol-id order — the interner's full state.
fn symbol_table(profile: &xsp_core::profile::LeveledProfile) -> (Vec<String>, SpanStore) {
    let store = SpanStore::from_spans(&profile.all_spans());
    let names: Vec<String> = store.names().iter().map(str::to_owned).collect();
    (names, store)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The acceptance property: across seeds and run counts, `Serial` and
    /// `Fixed(4)` agree on every symbol id and on every `.xspb` byte.
    #[test]
    fn fixed4_interns_identically_to_serial(
        seed in 0u64..u64::MAX,
        runs in 1usize..3,
    ) {
        let graph = zoo::by_name("MobileNet_v1_0.25_128").unwrap().graph(2);
        let serial = xsp_with(seed, runs, Parallelism::Serial).run(ProfileRequest::new(&graph));
        let parallel = xsp_with(seed, runs, Parallelism::Fixed(4)).run(ProfileRequest::new(&graph));

        // Same strings at the same symbol ids: the whole table, in order.
        let (names_s, store_s) = symbol_table(&serial);
        let (names_p, store_p) = symbol_table(&parallel);
        prop_assert_eq!(&names_s, &names_p, "symbol tables diverged");

        // Same `.xspb` bytes, whichever writer path produced them.
        let bytes_s = spans_to_binary(&serial.all_spans());
        let bytes_p = spans_to_binary(&parallel.all_spans());
        prop_assert_eq!(&bytes_s, &bytes_p, "binary interchange diverged");

        // The store-backed writer (the daemon's export path) emits the
        // same stream as the span-slice writer (the CLI's offline path).
        for store in [&store_s, &store_p] {
            let mut w = SpanBinaryWriter::new(Vec::new()).expect("Vec writes cannot fail");
            for view in store.iter() {
                w.write_span(view).expect("Vec writes cannot fail");
            }
            let via_store = w.finish().expect("Vec writes cannot fail");
            prop_assert_eq!(&via_store, &bytes_s, "store writer diverged");
        }
    }
}

/// Symbols are assigned strictly by first appearance in the span
/// sequence — the property the byte-determinism above reduces to. The
/// store's table starts with its three pre-interned async tag keys; every
/// symbol after that lands in exactly the order the capture first uses it.
#[test]
fn symbols_are_first_appearance_ordered() {
    use xsp_trace::span::tag_keys;
    let graph = zoo::by_name("MobileNet_v1_0.25_128").unwrap().graph(1);
    let profile = xsp_with(3, 1, Parallelism::Serial).run(ProfileRequest::new(&graph));
    let spans = profile.all_spans();
    let store = SpanStore::from_spans(&spans);

    // Replay the capture, recording each string the first time any span
    // field would intern it, in the store's field order.
    let mut expected: Vec<String> = vec![
        tag_keys::CORRELATION_ID.to_owned(),
        tag_keys::ASYNC_LAUNCH.to_owned(),
        tag_keys::ASYNC_EXECUTION.to_owned(),
    ];
    let note = |expected: &mut Vec<String>, s: &str| {
        if !expected.iter().any(|n| n == s) {
            expected.push(s.to_owned());
        }
    };
    for span in &spans {
        note(&mut expected, &span.name);
        for (key, value) in &span.tags {
            note(&mut expected, key);
            if let xsp_trace::TagValue::Str(v) = value {
                note(&mut expected, v);
            }
        }
    }
    let table: Vec<String> = store.names().iter().map(str::to_owned).collect();
    assert_eq!(table, expected, "table is not first-appearance ordered");

    // The binary stream's own symbol table reproduces on decode.
    let bytes = spans_to_binary(&spans);
    let back = read_span_binary(&bytes[..]).expect("own encoding parses");
    assert_eq!(back.spans(), &spans[..]);
}
