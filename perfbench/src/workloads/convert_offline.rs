//! `convert_offline`: one op is `xsp export --from C --format F`, run in
//! process and writing into memory.

use super::profile_cold;
use crate::rec::Rec;
use crate::run_loop::{digest, Rng, Workload};
use std::hint::black_box;
use xsp_core::export::{export_profile, export_run_profile, ExportFormat};
use xsp_core::pipeline::{profile_from_correlated, profile_from_trace};
use xsp_core::profile::{ProfileRequest, ProfilingLevel, Xsp};
use xsp_models::zoo;
use xsp_trace::export::{read_span_binary, read_span_json_lines};
use xsp_trace::{CorrelationEngine, Trace};

/// Zoo models whose M/L/G profiles become the captures: about 2k to 14k
/// spans each, in small steps so that op times spread smoothly. The seed
/// picks one of two batches per model (the span count does not depend on
/// it) and the rotation order.
const MODELS: [(&str, [usize; 2]); 9] = [
    ("MobileNet_v1_0.25_128", [1, 2]),
    ("Inception_v1", [1, 2]),
    ("ResNet_v1_50", [1, 2]),
    ("SSD_MobileNet_v1_FPN", [1, 2]),
    ("Inception_v3", [1, 2]),
    ("ResNet_v1_101", [1, 2]),
    ("AI_Matrix_DenseNet121", [1, 2]),
    ("ResNet_v1_152", [1, 2]),
    ("Faster_RCNN_ResNet101", [1, 2]),
];

/// The four `--format` outputs, in the order the rotation cycles them.
const FORMATS: [(ExportFormat, &str); 4] = [
    (ExportFormat::Chrome, "export.chrome"),
    (ExportFormat::Folded, "export.folded"),
    (ExportFormat::Spans, "export.spans"),
    (ExportFormat::Binary, "export.xspb"),
];

struct Capture {
    model: usize,
    binary: bool,
    bytes: Vec<u8>,
}

pub struct ConvertOffline {
    models: Vec<(zoo::ModelEntry, usize)>,
    captures: Vec<Capture>,
    /// Every (capture, format) pair once, in seeded order.
    rotation: Vec<(usize, usize)>,
    last: Option<(Vec<u8>, usize)>,
    /// (rotation index, output digest) of every completed op.
    kept: Vec<(usize, u64)>,
}

fn live_xsp() -> Xsp {
    Xsp::new(profile_cold::config(profile_cold::SETUP_PARALLELISM))
}

fn live_profile(xsp: &Xsp, entry: &zoo::ModelEntry, batch: usize) -> xsp_core::LeveledProfile {
    xsp.run(ProfileRequest::new(&entry.graph(batch)).level(ProfilingLevel::ModelLayerGpu))
}

impl ConvertOffline {
    /// Records every model's capture in both encodings: half the captures
    /// are span-JSON-lines, half `.xspb`.
    pub fn setup(seed: u64) -> Self {
        let mut rng = Rng::new(seed);
        let models: Vec<(zoo::ModelEntry, usize)> = MODELS
            .iter()
            .map(|(name, batches)| {
                let entry = zoo::by_name(name).unwrap_or_else(|| panic!("zoo has {name}"));
                (entry, batches[rng.below(2)])
            })
            .collect();
        let xsp = live_xsp();
        let mut captures = Vec::new();
        for (m, (entry, batch)) in models.iter().enumerate() {
            let profile = live_profile(&xsp, entry, *batch);
            for (binary, format) in [(false, ExportFormat::Spans), (true, ExportFormat::Binary)] {
                let mut bytes = Vec::new();
                export_profile(&profile, format, &mut bytes).expect("in-memory export");
                captures.push(Capture {
                    model: m,
                    binary,
                    bytes,
                });
            }
        }
        // Every (capture, format) pair once, as four blocks that each hold
        // every capture once, so that any stretch of ops mixes sizes alike.
        let offset: Vec<usize> = captures.iter().map(|_| rng.below(FORMATS.len())).collect();
        let mut rotation = Vec::new();
        for block in 0..FORMATS.len() {
            let mut order: Vec<usize> = (0..captures.len()).collect();
            rng.shuffle(&mut order);
            rotation.extend(
                order
                    .into_iter()
                    .map(|c| (c, (offset[c] + block) % FORMATS.len())),
            );
        }
        Self {
            models,
            captures,
            rotation,
            last: None,
            kept: Vec::new(),
        }
    }

    fn read(capture: &Capture, rec: &Rec) -> Result<Trace, String> {
        if capture.binary {
            rec.span("trace.parse_xspb", || read_span_binary(&capture.bytes[..]))
                .map_err(|e| e.to_string())
        } else {
            rec.span("trace.parse_jsonl", || {
                read_span_json_lines(&capture.bytes[..])
            })
            .map_err(|e| e.to_string())
        }
    }
}

impl Workload for ConvertOffline {
    fn cycle_len(&self) -> usize {
        self.rotation.len()
    }

    fn op(&mut self, i: usize, rec: &Rec) -> Result<(), String> {
        let (c, f) = self.rotation[i % self.rotation.len()];
        let capture = &self.captures[c];
        let trace = Self::read(capture, rec)?;
        let spans = trace.len();
        // The level is metadata on RunProfile only; exports never read it.
        let profile = rec.span("pipeline.from_trace", || {
            profile_from_trace(trace, ProfilingLevel::ModelLayerGpu)
        });
        let (format, name) = FORMATS[f];
        let mut out = Vec::new();
        rec.span(name, || export_run_profile(&profile, format, &mut out))
            .map_err(|e| e.to_string())?;
        self.last = Some((out, spans));
        Ok(())
    }

    fn keep(&mut self, i: usize, rec: &Rec) {
        let (out, spans) = self.last.take().expect("op kept its output");
        rec.count("trace.spans_per_op", spans as u64);
        rec.count("export.bytes_out", out.len() as u64);
        self.kept.push((i % self.rotation.len(), digest(&out)));
    }

    fn probe(&mut self, i: usize, rec: &Rec) {
        // `profile_from_trace` is correlation then extraction; time each.
        let (c, _) = self.rotation[i];
        let trace = Self::read(&self.captures[c], rec).expect("capture parsed in the op");
        let mut engine = CorrelationEngine::new();
        let correlated = rec.span("trace.correlate", || engine.correlate(trace));
        rec.count("trace.trees_built", engine.trees_built() as u64);
        black_box(rec.span("pipeline.extract", || {
            profile_from_correlated(correlated, ProfilingLevel::ModelLayerGpu)
        }));
    }

    fn describe(&self) -> Vec<String> {
        let captures: Vec<String> = self
            .captures
            .iter()
            .map(|c| {
                let (entry, batch) = &self.models[c.model];
                let enc = if c.binary { "xspb" } else { "jsonl" };
                format!("{}:b{batch}.{enc}={}B", entry.name, c.bytes.len())
            })
            .collect();
        vec![format!("captures: {}", captures.join(" "))]
    }

    fn verify(&mut self) -> Vec<String> {
        // Offline equals live: every conversion must equal `export_profile`
        // of the profile the capture was recorded from.
        let xsp = live_xsp();
        let mut reference: Vec<Vec<Option<u64>>> =
            vec![vec![None; FORMATS.len()]; self.models.len()];
        let mut live: Option<(usize, xsp_core::LeveledProfile)> = None;
        let mut kept = std::mem::take(&mut self.kept);
        kept.sort_by_key(|&(at, _)| self.captures[self.rotation[at].0].model);
        let mut failures = Vec::new();
        for (at, got) in kept {
            let (c, f) = self.rotation[at];
            let m = self.captures[c].model;
            let want = *reference[m][f].get_or_insert_with(|| {
                if live.as_ref().map(|(lm, _)| *lm) != Some(m) {
                    let (entry, batch) = &self.models[m];
                    live = Some((m, live_profile(&xsp, entry, *batch)));
                }
                let mut out = Vec::new();
                export_profile(&live.as_ref().expect("profiled").1, FORMATS[f].0, &mut out)
                    .expect("in-memory export");
                digest(&out)
            });
            if got != want {
                let (entry, batch) = &self.models[m];
                failures.push(format!(
                    "{} b{batch} {} -> {}: offline conversion differs from the live export",
                    entry.name,
                    if self.captures[c].binary {
                        "xspb"
                    } else {
                        "jsonl"
                    },
                    FORMATS[f].0
                ));
            }
        }
        failures
    }
}
