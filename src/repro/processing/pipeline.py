"""Pre/post-processing plans derived from Table-I model cards.

A plan is a list of named steps with reference-us costs — what the
simulator charges as CPU work — and, where meaningful, a real numpy
execution path used by the examples and tests.

Context matters (paper Figs. 3/4): a *benchmark* feeds random tensors
directly into the interpreter, so its pre-processing is nearly empty,
while an *app* pays bitmap conversion and the full scale/crop/normalize
chain in managed code.
"""

from dataclasses import dataclass, field

import numpy as np

from repro.processing import costs
from repro.processing.image import (
    bilinear_resize,
    center_crop,
    normalize,
    quantize_to_uint8,
    rotate90,
)


@dataclass(frozen=True)
class Step:
    """One processing step: label + simulated cost."""

    name: str
    cost_us: float


@dataclass
class Preprocessor:
    """Ordered pre-processing steps for one (model, context) pair."""

    model_key: str
    context: str
    input_hw: tuple
    dtype: str
    steps: list = field(default_factory=list)
    rotate_turns: int = 0

    @property
    def cost_us(self):
        return sum(step.cost_us for step in self.steps)

    def step_names(self):
        return [step.name for step in self.steps]

    def run(self, frame):
        """Execute the real pipeline on an (H, W, 3) uint8 RGB frame."""
        image = np.asarray(frame)
        if self.rotate_turns:
            image = rotate90(image, self.rotate_turns)
        names = set(self.step_names())
        if "scale" in names:
            # Resize so the short side matches, then center-crop (the
            # Inception-style pre-processing of the TFLite apps).
            target_h, target_w = self.input_hw
            if "crop" in names:
                scale = max(
                    target_h / image.shape[0], target_w / image.shape[1]
                )
                inter_hw = (
                    max(target_h, int(round(image.shape[0] * scale))),
                    max(target_w, int(round(image.shape[1] * scale))),
                )
                image = bilinear_resize(image, inter_hw)
                image = center_crop(image, (target_h, target_w))
            else:
                image = bilinear_resize(image, (target_h, target_w))
        if self.dtype == "int8":
            return quantize_to_uint8(image)
        if "normalize" in names:
            return normalize(image)
        return np.asarray(image, dtype=np.float32)


@dataclass
class PostprocessPlan:
    """Ordered post-processing steps for one (model, context) pair."""

    model_key: str
    context: str
    steps: list = field(default_factory=list)

    @property
    def cost_us(self):
        return sum(step.cost_us for step in self.steps)

    def step_names(self):
        return [step.name for step in self.steps]


#: Apps whose demo code path does pixel work natively rather than in
#: managed loops. The DeepLab demo scales via Bitmap.createScaledBitmap
#: (native/HW path), which is why the paper measures its pre-processing
#: at only ~1% of runtime despite the 513x513 input.
PRE_IMPL_OVERRIDES = {"deeplab_v3": costs.IMPL_NATIVE}

#: Characters of the query a language task tokenizes.
_TEXT_CHARS = 220


def build_preprocessor(card, model, context="app", source_hw=(480, 640)):
    """Build the pre-processing plan for a model card.

    ``context`` is ``"app"`` (camera frames, managed-code loops) or
    ``"benchmark"`` (random tensors, native code).
    """
    if context not in ("app", "benchmark"):
        raise ValueError(f"unknown context {context!r}")
    if context == "app":
        impl = PRE_IMPL_OVERRIDES.get(card.key, costs.IMPL_JAVA)
    else:
        impl = costs.IMPL_NATIVE

    if model.task == "language_processing":
        input_hw = (1, 1)
    else:
        input_hw = model.input_spec.shape[:2]
    plan = Preprocessor(
        model_key=card.key, context=context, input_hw=input_hw,
        dtype=model.dtype,
    )
    steps = plan.steps

    if "tokenization" in card.pre_tasks:
        steps.append(Step("tokenization", costs.tokenize_cost_us(_TEXT_CHARS, impl)))
        return plan

    if context == "app":
        height, width = source_hw
        steps.append(
            Step("bitmap_convert", costs.bitmap_convert_cost_us(width, height, impl))
        )
    if "rotate" in card.pre_tasks:
        plan.rotate_turns = 1
        steps.append(Step("rotate", costs.rotate_cost_us(input_hw, impl=impl)))
    if "scale" in card.pre_tasks and context == "app":
        steps.append(Step("scale", costs.resize_cost_us(input_hw, impl=impl)))
    if "crop" in card.pre_tasks and context == "app":
        steps.append(Step("crop", costs.crop_cost_us(input_hw, impl=impl)))
    if "normalize" in card.pre_tasks:
        if model.dtype == "int8":
            # Quantized input: bytes are range-adjusted, not float
            # normalized — the type-conversion task of §II-B.
            steps.append(
                Step(
                    "type_conversion",
                    costs.quantize_cost_us(model.input_spec.numel, impl=impl),
                )
            )
        else:
            steps.append(
                Step("normalize", costs.normalize_cost_us(input_hw, impl=impl))
            )
    return plan


def build_postprocess_plan(card, model, context="app"):
    """Build the post-processing plan for a model card."""
    impl = costs.IMPL_JAVA if context == "app" else costs.IMPL_NATIVE
    plan = PostprocessPlan(model_key=card.key, context=context)
    steps = plan.steps
    metadata = model.metadata

    for task in card.post_tasks_for(model.dtype):
        if task == "topK":
            steps.append(Step("topK", costs.topk_cost_us(model.output_features)))
        elif task == "dequantization":
            steps.append(
                Step(
                    "dequantization",
                    costs.dequantize_cost_us(model.output_features, impl=impl),
                )
            )
        elif task == "mask flattening":
            resolution = metadata.get("resolution", 513)
            classes = metadata.get("classes", 21)
            steps.append(
                Step(
                    "mask_flattening",
                    costs.mask_flatten_cost_us((resolution, resolution), classes),
                )
            )
        elif task == "calculate keypoints":
            grid = metadata.get("heatmap_size", (14, 14))
            keypoints = metadata.get("keypoints", 17)
            steps.append(
                Step(
                    "calculate_keypoints",
                    costs.keypoint_decode_cost_us(grid, keypoints),
                )
            )
        elif task == "compute logits":
            seq_len = metadata.get("seq_len", 384)
            steps.append(Step("compute_logits", 8.0 + seq_len * 0.02))
        else:
            raise ValueError(f"unknown post-processing task {task!r}")

    # Detection apps additionally decode anchors and run NMS to draw
    # boxes (paper §IV-A: "bounding box tracking").
    if card.task == "object_detection" and context == "app":
        anchors = metadata.get("anchors", 1917)
        steps.append(Step("box_decode_nms", costs.nms_cost_us(anchors)))
    return plan
