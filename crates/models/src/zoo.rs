//! The model registry: Table VIII's 55 TensorFlow models and Table X's 10
//! MXNet counterparts, with published accuracy and frozen-graph sizes —
//! plus the GEMM-bound transformer extension tier
//! ([`Task::LanguageModeling`], ids 56–58).

use crate::{
    alexnet, densenet, detection, inception, mobilenet, resnet, segmentation, srgan, transformer,
    vgg,
};
use resnet::ResNetVersion;
use serde::{Deserialize, Serialize};
use xsp_framework::LayerGraph;

/// The task a model solves (Table VIII, extended).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Task {
    /// Image classification.
    ImageClassification,
    /// Object detection.
    ObjectDetection,
    /// Instance segmentation.
    InstanceSegmentation,
    /// Semantic segmentation.
    SemanticSegmentation,
    /// Super resolution.
    SuperResolution,
    /// Language modeling / NLP inference (transformer tier; not in the
    /// paper's tables).
    LanguageModeling,
}

impl Task {
    /// Two-letter code used in the paper's tables.
    pub fn code(self) -> &'static str {
        match self {
            Task::ImageClassification => "IC",
            Task::ObjectDetection => "OD",
            Task::InstanceSegmentation => "IS",
            Task::SemanticSegmentation => "SS",
            Task::SuperResolution => "SR",
            Task::LanguageModeling => "LM",
        }
    }

    /// The accuracy metric entries of this task report by default. Entries
    /// can override it ([`ModelEntry::metric`]) — language models in
    /// particular split between F1 (extractive QA) and perplexity
    /// (generative LM).
    pub fn default_metric(self) -> AccuracyMetric {
        match self {
            Task::ImageClassification => AccuracyMetric::Top1,
            Task::ObjectDetection | Task::InstanceSegmentation => AccuracyMetric::MeanAp,
            Task::SemanticSegmentation => AccuracyMetric::MeanIou,
            Task::SuperResolution => AccuracyMetric::Psnr,
            Task::LanguageModeling => AccuracyMetric::F1,
        }
    }
}

/// The kind of quality number a zoo entry's `accuracy` field holds. The
/// paper's tables are vision-only and print bare numbers; making the metric
/// explicit lets mixed-task tables (Table VIII + the LM tier) label each
/// row correctly instead of implying everything is top-1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AccuracyMetric {
    /// ImageNet top-1 accuracy, percent.
    Top1,
    /// COCO mean average precision.
    MeanAp,
    /// Mean intersection-over-union, percent.
    MeanIou,
    /// Peak signal-to-noise ratio, dB.
    Psnr,
    /// SQuAD-style F1 score.
    F1,
    /// Language-model perplexity (lower is better).
    Perplexity,
}

impl AccuracyMetric {
    /// Short unit label for table cells ("" for top-1, matching the
    /// paper's bare numbers).
    pub fn suffix(self) -> &'static str {
        match self {
            AccuracyMetric::Top1 => "",
            AccuracyMetric::MeanAp => " mAP",
            AccuracyMetric::MeanIou => " mIOU",
            AccuracyMetric::Psnr => " dB",
            AccuracyMetric::F1 => " F1",
            AccuracyMetric::Perplexity => " ppl",
        }
    }

    /// Whether lower values mean better quality (perplexity).
    pub fn lower_is_better(self) -> bool {
        matches!(self, AccuracyMetric::Perplexity)
    }
}

/// A zoo entry: metadata plus the graph builder.
#[derive(Clone)]
pub struct ModelEntry {
    /// Table VIII / Table X row id (56+ for the transformer tier).
    pub id: u32,
    /// Model name as the paper prints it.
    pub name: &'static str,
    /// Task.
    pub task: Task,
    /// Published quality number, in the units of `metric`
    /// (`None` for SRGAN).
    pub accuracy: Option<f64>,
    /// What `accuracy` measures.
    pub metric: AccuracyMetric,
    /// Frozen-graph size, MB (Table VIII).
    pub graph_size_mb: f64,
    /// Builds the static layer graph for a batch size.
    pub build: fn(usize) -> LayerGraph,
}

impl ModelEntry {
    /// Builds the graph at `batch`.
    pub fn graph(&self, batch: usize) -> LayerGraph {
        (self.build)(batch)
    }

    /// Formats the accuracy for a table cell: bare number for top-1 (the
    /// paper's style), metric-suffixed otherwise, `-` when unpublished.
    pub fn accuracy_cell(&self) -> String {
        match self.accuracy {
            Some(a) => format!("{a:.2}{}", self.metric.suffix()),
            None => "-".to_owned(),
        }
    }
}

impl std::fmt::Debug for ModelEntry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ModelEntry")
            .field("id", &self.id)
            .field("name", &self.name)
            .field("task", &self.task.code())
            .finish()
    }
}

// Individual builder fns (monomorphic fn pointers for the registry).
fn m01(b: usize) -> LayerGraph {
    inception::inception_resnet_v2(b)
}
fn m02(b: usize) -> LayerGraph {
    inception::inception_v4(b)
}
fn m03(b: usize) -> LayerGraph {
    inception::inception_v3(b)
}
fn m04(b: usize) -> LayerGraph {
    resnet::resnet_v2(b, 152)
}
fn m05(b: usize) -> LayerGraph {
    resnet::resnet_v2(b, 101)
}
fn m06(b: usize) -> LayerGraph {
    resnet::resnet_v1(b, 152)
}
fn m07(b: usize) -> LayerGraph {
    resnet::mlperf_resnet50_v15(b)
}
fn m08(b: usize) -> LayerGraph {
    resnet::resnet_v1(b, 101)
}
fn m09(b: usize) -> LayerGraph {
    resnet::resnet(
        b,
        152,
        ResNetVersion::V1 {
            stride_on_3x3: false,
        },
        1000,
    )
}
fn m10(b: usize) -> LayerGraph {
    resnet::resnet_v2(b, 50)
}
fn m11(b: usize) -> LayerGraph {
    resnet::resnet_v1(b, 50)
}
fn m12(b: usize) -> LayerGraph {
    resnet::resnet(
        b,
        50,
        ResNetVersion::V1 {
            stride_on_3x3: false,
        },
        1000,
    )
}
fn m13(b: usize) -> LayerGraph {
    inception::inception_v2(b)
}
fn m14(b: usize) -> LayerGraph {
    densenet::densenet121(b)
}
fn m15(b: usize) -> LayerGraph {
    mobilenet::mobilenet_v1(b, 1.0, 224)
}
fn m16(b: usize) -> LayerGraph {
    vgg::vgg(b, 16)
}
fn m17(b: usize) -> LayerGraph {
    vgg::vgg(b, 19)
}
fn m18(b: usize) -> LayerGraph {
    mobilenet::mobilenet_v1(b, 1.0, 224)
}
fn m19(b: usize) -> LayerGraph {
    inception::inception_v1(b, true, 1000)
}
fn m20(b: usize) -> LayerGraph {
    mobilenet::mobilenet_v1(b, 1.0, 192)
}
fn m21(b: usize) -> LayerGraph {
    inception::inception_v1(b, true, 1000)
}
fn m22(b: usize) -> LayerGraph {
    inception::inception_v1(b, false, 1000)
}
fn m23(b: usize) -> LayerGraph {
    mobilenet::mobilenet_v1(b, 0.75, 224)
}
fn m24(b: usize) -> LayerGraph {
    mobilenet::mobilenet_v1(b, 1.0, 160)
}
fn m25(b: usize) -> LayerGraph {
    mobilenet::mobilenet_v1(b, 0.75, 192)
}
fn m26(b: usize) -> LayerGraph {
    mobilenet::mobilenet_v1(b, 0.75, 160)
}
fn m27(b: usize) -> LayerGraph {
    mobilenet::mobilenet_v1(b, 1.0, 128)
}
fn m28(b: usize) -> LayerGraph {
    mobilenet::mobilenet_v1(b, 0.5, 224)
}
fn m29(b: usize) -> LayerGraph {
    mobilenet::mobilenet_v1(b, 0.75, 128)
}
fn m30(b: usize) -> LayerGraph {
    mobilenet::mobilenet_v1(b, 0.5, 192)
}
fn m31(b: usize) -> LayerGraph {
    mobilenet::mobilenet_v1(b, 0.5, 160)
}
fn m32(b: usize) -> LayerGraph {
    alexnet::alexnet(b)
}
fn m33(b: usize) -> LayerGraph {
    mobilenet::mobilenet_v1(b, 0.5, 128)
}
fn m34(b: usize) -> LayerGraph {
    mobilenet::mobilenet_v1(b, 0.25, 224)
}
fn m35(b: usize) -> LayerGraph {
    mobilenet::mobilenet_v1(b, 0.25, 192)
}
fn m36(b: usize) -> LayerGraph {
    mobilenet::mobilenet_v1(b, 0.25, 160)
}
fn m37(b: usize) -> LayerGraph {
    mobilenet::mobilenet_v1(b, 0.25, 128)
}
fn m38(b: usize) -> LayerGraph {
    detection::faster_rcnn_nas(b)
}
fn m39(b: usize) -> LayerGraph {
    detection::faster_rcnn_resnet101(b)
}
fn m40(b: usize) -> LayerGraph {
    detection::ssd_mobilenet_v1_fpn(b)
}
fn m41(b: usize) -> LayerGraph {
    detection::faster_rcnn_resnet50(b)
}
fn m42(b: usize) -> LayerGraph {
    detection::faster_rcnn_inception_v2(b)
}
fn m43(b: usize) -> LayerGraph {
    detection::ssd_inception_v2(b)
}
fn m44(b: usize) -> LayerGraph {
    detection::ssd_mobilenet_v1(b, 115)
}
fn m45(b: usize) -> LayerGraph {
    detection::ssd_mobilenet_v2(b)
}
fn m46(b: usize) -> LayerGraph {
    detection::ssd_resnet34(b)
}
fn m47(b: usize) -> LayerGraph {
    detection::ssd_mobilenet_v1_ppn(b)
}
fn m48(b: usize) -> LayerGraph {
    segmentation::mask_rcnn_inception_resnet_v2(b)
}
fn m49(b: usize) -> LayerGraph {
    segmentation::mask_rcnn_resnet101_v2(b)
}
fn m50(b: usize) -> LayerGraph {
    segmentation::mask_rcnn_resnet50_v2(b)
}
fn m51(b: usize) -> LayerGraph {
    segmentation::mask_rcnn_inception_v2(b)
}
fn m52(b: usize) -> LayerGraph {
    segmentation::deeplabv3_xception65(b)
}
fn m53(b: usize) -> LayerGraph {
    segmentation::deeplabv3_mobilenet_v2(b, 1.0)
}
fn m54(b: usize) -> LayerGraph {
    segmentation::deeplabv3_mobilenet_v2(b, 0.5)
}
fn m55(b: usize) -> LayerGraph {
    srgan::srgan(b)
}
fn m56(b: usize) -> LayerGraph {
    transformer::bert_base(b, 384)
}
fn m57(b: usize) -> LayerGraph {
    transformer::bert_large(b, 384)
}
fn m58(b: usize) -> LayerGraph {
    transformer::gpt2_small(b, 256)
}

/// The 55 TensorFlow models of Table VIII, in table order.
pub fn tensorflow_models() -> Vec<ModelEntry> {
    use Task::*;
    let e = |id: u32,
             name: &'static str,
             task: Task,
             accuracy: Option<f64>,
             graph_size_mb: f64,
             build: fn(usize) -> LayerGraph| ModelEntry {
        id,
        name,
        task,
        accuracy,
        metric: task.default_metric(),
        graph_size_mb,
        build,
    };
    vec![
        e(
            1,
            "Inception_ResNet_v2",
            ImageClassification,
            Some(80.40),
            214.0,
            m01,
        ),
        e(
            2,
            "Inception_v4",
            ImageClassification,
            Some(80.20),
            163.0,
            m02,
        ),
        e(
            3,
            "Inception_v3",
            ImageClassification,
            Some(78.00),
            91.0,
            m03,
        ),
        e(
            4,
            "ResNet_v2_152",
            ImageClassification,
            Some(77.80),
            231.0,
            m04,
        ),
        e(
            5,
            "ResNet_v2_101",
            ImageClassification,
            Some(77.00),
            170.0,
            m05,
        ),
        e(
            6,
            "ResNet_v1_152",
            ImageClassification,
            Some(76.80),
            230.0,
            m06,
        ),
        e(
            7,
            "MLPerf_ResNet50_v1.5",
            ImageClassification,
            Some(76.46),
            103.0,
            m07,
        ),
        e(
            8,
            "ResNet_v1_101",
            ImageClassification,
            Some(76.40),
            170.0,
            m08,
        ),
        e(
            9,
            "AI_Matrix_ResNet152",
            ImageClassification,
            Some(75.93),
            230.0,
            m09,
        ),
        e(
            10,
            "ResNet_v2_50",
            ImageClassification,
            Some(75.60),
            98.0,
            m10,
        ),
        e(
            11,
            "ResNet_v1_50",
            ImageClassification,
            Some(75.20),
            98.0,
            m11,
        ),
        e(
            12,
            "AI_Matrix_ResNet50",
            ImageClassification,
            Some(74.38),
            98.0,
            m12,
        ),
        e(
            13,
            "Inception_v2",
            ImageClassification,
            Some(73.90),
            43.0,
            m13,
        ),
        e(
            14,
            "AI_Matrix_DenseNet121",
            ImageClassification,
            Some(73.29),
            31.0,
            m14,
        ),
        e(
            15,
            "MLPerf_MobileNet_v1",
            ImageClassification,
            Some(71.68),
            17.0,
            m15,
        ),
        e(16, "VGG16", ImageClassification, Some(71.50), 528.0, m16),
        e(17, "VGG19", ImageClassification, Some(71.10), 548.0, m17),
        e(
            18,
            "MobileNet_v1_1.0_224",
            ImageClassification,
            Some(70.90),
            16.0,
            m18,
        ),
        e(
            19,
            "AI_Matrix_GoogleNet",
            ImageClassification,
            Some(70.01),
            27.0,
            m19,
        ),
        e(
            20,
            "MobileNet_v1_1.0_192",
            ImageClassification,
            Some(70.00),
            16.0,
            m20,
        ),
        e(
            21,
            "Inception_v1",
            ImageClassification,
            Some(69.80),
            26.0,
            m21,
        ),
        e(
            22,
            "BVLC_GoogLeNet_Caffe",
            ImageClassification,
            Some(68.70),
            27.0,
            m22,
        ),
        e(
            23,
            "MobileNet_v1_0.75_224",
            ImageClassification,
            Some(68.40),
            10.0,
            m23,
        ),
        e(
            24,
            "MobileNet_v1_1.0_160",
            ImageClassification,
            Some(68.00),
            16.0,
            m24,
        ),
        e(
            25,
            "MobileNet_v1_0.75_192",
            ImageClassification,
            Some(67.20),
            10.0,
            m25,
        ),
        e(
            26,
            "MobileNet_v1_0.75_160",
            ImageClassification,
            Some(65.30),
            10.0,
            m26,
        ),
        e(
            27,
            "MobileNet_v1_1.0_128",
            ImageClassification,
            Some(65.20),
            16.0,
            m27,
        ),
        e(
            28,
            "MobileNet_v1_0.5_224",
            ImageClassification,
            Some(63.30),
            5.2,
            m28,
        ),
        e(
            29,
            "MobileNet_v1_0.75_128",
            ImageClassification,
            Some(62.10),
            10.0,
            m29,
        ),
        e(
            30,
            "MobileNet_v1_0.5_192",
            ImageClassification,
            Some(61.70),
            5.2,
            m30,
        ),
        e(
            31,
            "MobileNet_v1_0.5_160",
            ImageClassification,
            Some(59.10),
            5.2,
            m31,
        ),
        e(
            32,
            "BVLC_AlexNet_Caffe",
            ImageClassification,
            Some(57.10),
            233.0,
            m32,
        ),
        e(
            33,
            "MobileNet_v1_0.5_128",
            ImageClassification,
            Some(56.30),
            5.2,
            m33,
        ),
        e(
            34,
            "MobileNet_v1_0.25_224",
            ImageClassification,
            Some(49.80),
            1.9,
            m34,
        ),
        e(
            35,
            "MobileNet_v1_0.25_192",
            ImageClassification,
            Some(47.70),
            1.9,
            m35,
        ),
        e(
            36,
            "MobileNet_v1_0.25_160",
            ImageClassification,
            Some(45.50),
            1.9,
            m36,
        ),
        e(
            37,
            "MobileNet_v1_0.25_128",
            ImageClassification,
            Some(41.50),
            1.9,
            m37,
        ),
        e(
            38,
            "Faster_RCNN_NAS",
            ObjectDetection,
            Some(43.0),
            405.0,
            m38,
        ),
        e(
            39,
            "Faster_RCNN_ResNet101",
            ObjectDetection,
            Some(32.0),
            187.0,
            m39,
        ),
        e(
            40,
            "SSD_MobileNet_v1_FPN",
            ObjectDetection,
            Some(32.0),
            49.0,
            m40,
        ),
        e(
            41,
            "Faster_RCNN_ResNet50",
            ObjectDetection,
            Some(30.0),
            115.0,
            m41,
        ),
        e(
            42,
            "Faster_RCNN_Inception_v2",
            ObjectDetection,
            Some(28.0),
            54.0,
            m42,
        ),
        e(
            43,
            "SSD_Inception_v2",
            ObjectDetection,
            Some(24.0),
            97.0,
            m43,
        ),
        e(
            44,
            "MLPerf_SSD_MobileNet_v1_300x300",
            ObjectDetection,
            Some(23.0),
            28.0,
            m44,
        ),
        e(
            45,
            "SSD_MobileNet_v2",
            ObjectDetection,
            Some(22.0),
            66.0,
            m45,
        ),
        e(
            46,
            "MLPerf_SSD_ResNet34_1200x1200",
            ObjectDetection,
            Some(20.0),
            81.0,
            m46,
        ),
        e(
            47,
            "SSD_MobileNet_v1_PPN",
            ObjectDetection,
            Some(20.0),
            10.0,
            m47,
        ),
        e(
            48,
            "Mask_RCNN_Inception_ResNet_v2",
            InstanceSegmentation,
            Some(36.0),
            254.0,
            m48,
        ),
        e(
            49,
            "Mask_RCNN_ResNet101_v2",
            InstanceSegmentation,
            Some(33.0),
            212.0,
            m49,
        ),
        e(
            50,
            "Mask_RCNN_ResNet50_v2",
            InstanceSegmentation,
            Some(29.0),
            138.0,
            m50,
        ),
        e(
            51,
            "Mask_RCNN_Inception_v2",
            InstanceSegmentation,
            Some(25.0),
            64.0,
            m51,
        ),
        e(
            52,
            "DeepLabv3_Xception_65",
            SemanticSegmentation,
            Some(87.8),
            439.0,
            m52,
        ),
        e(
            53,
            "DeepLabv3_MobileNet_v2",
            SemanticSegmentation,
            Some(80.25),
            8.8,
            m53,
        ),
        e(
            54,
            "DeepLabv3_MobileNet_v2_DM0.5",
            SemanticSegmentation,
            Some(71.83),
            7.6,
            m54,
        ),
        e(55, "SRGAN", SuperResolution, None, 5.9, m55),
    ]
}

/// The transformer tier (not in the paper's tables): BERT-Base/Large with
/// the MLPerf-style SQuAD v1.1 head at sequence length 384, and a GPT-2
/// small decoder at sequence length 256. These are the zoo's GEMM-bound
/// models; quality numbers are the published SQuAD F1 / WikiText-2
/// perplexity figures.
pub fn language_models() -> Vec<ModelEntry> {
    use Task::LanguageModeling;
    let e = |id: u32,
             name: &'static str,
             accuracy: f64,
             metric: AccuracyMetric,
             graph_size_mb: f64,
             build: fn(usize) -> LayerGraph| ModelEntry {
        id,
        name,
        task: LanguageModeling,
        accuracy: Some(accuracy),
        metric,
        graph_size_mb,
        build,
    };
    vec![
        e(
            56,
            "BERT-Base_SQuAD_384",
            88.50,
            AccuracyMetric::F1,
            436.0,
            m56,
        ),
        e(
            57,
            "BERT-Large_SQuAD_384",
            90.87,
            AccuracyMetric::F1,
            1335.0,
            m57,
        ),
        e(
            58,
            "GPT2_Small_256",
            29.41,
            AccuracyMetric::Perplexity,
            651.0,
            m58,
        ),
    ]
}

/// Every registered model: the 55 TensorFlow CNNs plus the transformer
/// tier, in id order.
pub fn all_models() -> Vec<ModelEntry> {
    let mut models = tensorflow_models();
    models.extend(language_models());
    models
}

/// The 10 MXNet Gluon models of Table X. Ids match the comparable
/// TensorFlow model in Table VIII.
pub fn mxnet_models() -> Vec<ModelEntry> {
    tensorflow_models()
        .into_iter()
        .filter(|m| matches!(m.id, 4 | 5 | 6 | 8 | 10 | 11 | 18 | 23 | 28 | 34))
        .collect()
}

/// Looks a model up by id (Table VIII ids 1–55, transformer tier 56–58).
pub fn by_id(id: u32) -> Option<ModelEntry> {
    all_models().into_iter().find(|m| m.id == id)
}

/// Looks a model up by name, across every tier.
pub fn by_name(name: &str) -> Option<ModelEntry> {
    all_models().into_iter().find(|m| m.name == name)
}

/// The 37 image-classification models of Table IX.
pub fn image_classification_models() -> Vec<ModelEntry> {
    tensorflow_models()
        .into_iter()
        .filter(|m| m.task == Task::ImageClassification)
        .collect()
}

/// Why a forgiving [`lookup`] failed — structured so every consumer (the
/// CLI's `--model` flag, the daemon's `Open` frame) renders the same
/// guidance, nearest zoo entries included.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LookupError {
    /// No entry matched, even forgivingly; `nearest` holds the closest
    /// `(id, name)` pairs by edit distance over normalized names,
    /// closest first.
    Unknown {
        /// The query as given.
        query: String,
        /// Closest zoo entries, `(id, name)`, closest first.
        nearest: Vec<(u32, &'static str)>,
    },
    /// The query prefix-matched more than one entry.
    Ambiguous {
        /// The query as given.
        query: String,
        /// Every `(id, name)` the prefix matched, in id order.
        matches: Vec<(u32, &'static str)>,
    },
}

impl std::fmt::Display for LookupError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let list = |pairs: &[(u32, &'static str)]| {
            pairs
                .iter()
                .map(|(id, name)| format!("{id} {name}"))
                .collect::<Vec<_>>()
                .join(", ")
        };
        match self {
            LookupError::Unknown { query, nearest } => {
                write!(
                    f,
                    "unknown model '{query}'; nearest: {} (try: xsp list-models)",
                    list(nearest)
                )
            }
            LookupError::Ambiguous { query, matches } => {
                write!(f, "ambiguous model '{query}': matches {}", list(matches))
            }
        }
    }
}

impl std::error::Error for LookupError {}

fn normalize(s: &str) -> String {
    s.to_ascii_lowercase().replace('-', "_")
}

/// Classic Levenshtein edit distance — small strings, O(a·b) DP row.
fn edit_distance(a: &str, b: &str) -> usize {
    let b_chars: Vec<char> = b.chars().collect();
    let mut row: Vec<usize> = (0..=b_chars.len()).collect();
    for (i, ca) in a.chars().enumerate() {
        let mut prev = row[0];
        row[0] = i + 1;
        for (j, &cb) in b_chars.iter().enumerate() {
            let cost = if ca == cb { prev } else { prev + 1 };
            prev = row[j + 1];
            row[j + 1] = cost.min(prev + 1).min(row[j] + 1);
        }
    }
    row[b_chars.len()]
}

/// Forgiving model lookup across every tier: the zoo id `xsp list-models`
/// prints (`56`), or the exact name, then case-insensitive with `-`/`_`
/// interchangeable, then unique-prefix (`bert-base` →
/// BERT-Base_SQuAD_384). An exact normalized match wins outright, so a
/// full name that happens to prefix another entry (DeepLabv3_MobileNet_v2
/// vs ..._DM0.5) is never reported ambiguous. Failures come back as a
/// structured [`LookupError`] carrying the nearest zoo ids/names.
pub fn lookup(name: &str) -> Result<ModelEntry, LookupError> {
    if let Some(exact) = name.parse().ok().and_then(by_id).or_else(|| by_name(name)) {
        return Ok(exact);
    }
    let needle = normalize(name);
    if let Some(exact) = all_models()
        .into_iter()
        .find(|m| normalize(m.name) == needle)
    {
        return Ok(exact);
    }
    let mut matches: Vec<ModelEntry> = all_models()
        .into_iter()
        .filter(|m| normalize(m.name).starts_with(&needle))
        .collect();
    match matches.len() {
        1 => Ok(matches.remove(0)),
        0 => {
            let mut scored: Vec<(usize, u32, &'static str)> = all_models()
                .iter()
                .map(|m| (edit_distance(&needle, &normalize(m.name)), m.id, m.name))
                .collect();
            scored.sort_by_key(|a| (a.0, a.1));
            Err(LookupError::Unknown {
                query: name.to_owned(),
                nearest: scored
                    .into_iter()
                    .take(3)
                    .map(|(_, id, n)| (id, n))
                    .collect(),
            })
        }
        _ => Err(LookupError::Ambiguous {
            query: name.to_owned(),
            matches: matches.into_iter().map(|m| (m.id, m.name)).collect(),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_is_forgiving() {
        assert_eq!(lookup("BERT-Base_SQuAD_384").unwrap().id, 56);
        assert_eq!(lookup("5").unwrap().id, 5, "the id list-models prints");
        assert_eq!(lookup("58").unwrap().name, "GPT2_Small_256");
        assert!(lookup("59").is_err() && lookup("0").is_err());
        assert_eq!(lookup("bert-base").unwrap().id, 56);
        assert_eq!(lookup("gpt2_small_256").unwrap().id, 58);
    }

    #[test]
    fn lookup_unknown_lists_nearest() {
        let err = lookup("GPT2_Smal_256").unwrap_err();
        match &err {
            LookupError::Unknown { nearest, .. } => {
                assert_eq!(nearest.first().map(|(id, _)| *id), Some(58));
                assert_eq!(nearest.len(), 3);
            }
            other => panic!("expected Unknown, got {other:?}"),
        }
        assert!(err.to_string().contains("GPT2_Small_256"));
        assert!(err.to_string().contains("list-models"));
    }

    #[test]
    fn lookup_ambiguous_lists_all_matches() {
        let err = lookup("bert").unwrap_err();
        match err {
            LookupError::Ambiguous { matches, .. } => {
                assert_eq!(
                    matches.iter().map(|(id, _)| *id).collect::<Vec<_>>(),
                    vec![56, 57]
                );
            }
            other => panic!("expected Ambiguous, got {other:?}"),
        }
    }

    #[test]
    fn fifty_five_tensorflow_models() {
        let models = tensorflow_models();
        assert_eq!(models.len(), 55);
        // ids are 1..=55 in order
        for (i, m) in models.iter().enumerate() {
            assert_eq!(m.id, i as u32 + 1);
        }
    }

    #[test]
    fn ten_mxnet_models() {
        let models = mxnet_models();
        assert_eq!(models.len(), 10);
        let ids: Vec<u32> = models.iter().map(|m| m.id).collect();
        assert_eq!(ids, vec![4, 5, 6, 8, 10, 11, 18, 23, 28, 34]);
    }

    #[test]
    fn thirty_seven_ic_models() {
        assert_eq!(image_classification_models().len(), 37);
    }

    #[test]
    fn ic_models_sorted_by_accuracy() {
        let ic = image_classification_models();
        for w in ic.windows(2) {
            assert!(
                w[0].accuracy.unwrap() >= w[1].accuracy.unwrap(),
                "{} vs {}",
                w[0].name,
                w[1].name
            );
        }
    }

    #[test]
    fn lookup_by_name_and_id() {
        let m = by_name("MLPerf_ResNet50_v1.5").unwrap();
        assert_eq!(m.id, 7);
        assert_eq!(by_id(7).unwrap().name, "MLPerf_ResNet50_v1.5");
        assert!(by_name("NotAModel").is_none());
        // lookups cover the transformer tier too
        assert_eq!(by_id(56).unwrap().name, "BERT-Base_SQuAD_384");
        assert_eq!(by_name("GPT2_Small_256").unwrap().id, 58);
    }

    #[test]
    fn all_graphs_build_at_batch_1() {
        for m in all_models() {
            let g = m.graph(1);
            assert!(!g.is_empty(), "{} built empty", m.name);
            assert_eq!(g.batch(), 1, "{}", m.name);
            assert_eq!(g.layers[0].op.type_name(), "Data", "{}", m.name);
        }
    }

    #[test]
    fn task_distribution_matches_table_viii() {
        let models = tensorflow_models();
        let count = |t: Task| models.iter().filter(|m| m.task == t).count();
        assert_eq!(count(Task::ImageClassification), 37);
        assert_eq!(count(Task::ObjectDetection), 10);
        assert_eq!(count(Task::InstanceSegmentation), 4);
        assert_eq!(count(Task::SemanticSegmentation), 3);
        assert_eq!(count(Task::SuperResolution), 1);
        // the paper's tables stay untouched by the extension tier
        assert_eq!(count(Task::LanguageModeling), 0);
    }

    #[test]
    fn srgan_has_no_accuracy() {
        assert!(by_id(55).unwrap().accuracy.is_none());
        assert_eq!(by_id(55).unwrap().accuracy_cell(), "-");
    }

    #[test]
    fn language_model_tier_is_registered() {
        let lm = language_models();
        assert_eq!(lm.len(), 3);
        let ids: Vec<u32> = lm.iter().map(|m| m.id).collect();
        assert_eq!(ids, vec![56, 57, 58]);
        assert!(lm.iter().all(|m| m.task == Task::LanguageModeling));
        assert_eq!(all_models().len(), 58);
        // ids stay unique and ordered across the whole registry
        for w in all_models().windows(2) {
            assert!(w[0].id < w[1].id);
        }
    }

    #[test]
    fn accuracy_metrics_print_per_task() {
        // vision rows keep the paper's bare top-1 style
        assert_eq!(by_id(1).unwrap().accuracy_cell(), "80.40");
        // detection/segmentation rows carry their unit
        assert_eq!(by_id(38).unwrap().accuracy_cell(), "43.00 mAP");
        assert_eq!(by_id(52).unwrap().accuracy_cell(), "87.80 mIOU");
        // language models split between F1 and perplexity
        assert_eq!(by_id(56).unwrap().accuracy_cell(), "88.50 F1");
        let gpt = by_id(58).unwrap();
        assert_eq!(gpt.accuracy_cell(), "29.41 ppl");
        assert!(gpt.metric.lower_is_better());
        assert!(!by_id(56).unwrap().metric.lower_is_better());
    }

    #[test]
    fn language_model_graph_sizes_match_weights() {
        for m in language_models() {
            let weights = m.graph(1).weights_mb();
            let relative = (weights - m.graph_size_mb).abs() / m.graph_size_mb;
            assert!(
                relative < 0.05,
                "{}: weights {weights:.1} MB vs published {} MB",
                m.name,
                m.graph_size_mb
            );
        }
    }
}
