"""Per-driver operator support matrices.

The paper's central framework finding (Fig. 5) is that NNAPI driver
support "is lagging for the INT8 operators the model implementation
used", so op-level support gaps decide whether a graph is accelerated,
fragmented, or silently dumped onto slow CPU reference kernels. The
matrices here encode the gaps that reproduce the paper's observations
on the SD845-era drivers:

* The NNAPI *DSP* driver lacks quantized ``ADD`` (residual connections)
  — harmless for MobileNet v1 (no residuals), fatal for
  EfficientNet-Lite0 (a residual per MBConv block fragments the graph
  until NNAPI gives up and falls back to the CPU).
* NNAPI drivers lack the asymmetric (1x7 / 7x1) convolutions of the
  Inception family, which is why the paper sees Inception "only
  partially offloaded ... around half of its inference on the CPU".
* The open-source TFLite Hexagon delegate supports the full quantized
  op set, and vendor SNPE supports everything it claims to.
"""

#: Op kinds that exist in our model IR.
_ALL_KINDS = {
    "CONV_2D",
    "DEPTHWISE_CONV_2D",
    "FULLY_CONNECTED",
    "BATCH_MATMUL",
    "ATTENTION",
    "MAX_POOL_2D",
    "AVERAGE_POOL_2D",
    "RELU",
    "RELU6",
    "LOGISTIC",
    "GELU",
    "ADD",
    "CONCATENATION",
    "SOFTMAX",
    "RESIZE_BILINEAR",
    "EMBEDDING_LOOKUP",
}

_BASIC_CNN = {
    "CONV_2D",
    "DEPTHWISE_CONV_2D",
    "FULLY_CONNECTED",
    "MAX_POOL_2D",
    "AVERAGE_POOL_2D",
    "RELU",
    "RELU6",
    "LOGISTIC",
    "CONCATENATION",
    "SOFTMAX",
}

#: backend -> dtype -> supported op kinds.
_MATRIX = {
    # NNAPI accelerator drivers (SD845-era, API level 28).
    "nnapi-dsp": {
        "int8": _BASIC_CNN | {"ADD", "RESIZE_BILINEAR"},
        "fp32": set(),  # HVX has no vector float path
        "fp16": set(),
    },
    "nnapi-gpu": {
        "fp32": _BASIC_CNN | {"ADD", "RESIZE_BILINEAR"},
        "fp16": _BASIC_CNN | {"ADD", "RESIZE_BILINEAR"},
        "int8": set(),  # the GL path has no quantized kernels
    },
    # TFLite open-source delegates.
    "hexagon-delegate": {
        "int8": _BASIC_CNN | {"ADD", "RESIZE_BILINEAR"},
        "fp32": set(),
        "fp16": set(),
    },
    "gpu-delegate": {
        "fp32": _BASIC_CNN | {"ADD", "RESIZE_BILINEAR"},
        "fp16": _BASIC_CNN | {"ADD", "RESIZE_BILINEAR"},
        "int8": set(),
    },
    # Vendor SNPE: complete coverage of its documented set.
    "snpe-dsp": {
        "int8": _ALL_KINDS - {"ATTENTION", "GELU"},
        "fp32": set(),
        "fp16": set(),
    },
    # TFLite CPU kernels run everything.
    "cpu": {"fp32": _ALL_KINDS, "fp16": _ALL_KINDS, "int8": _ALL_KINDS},
}


def _is_asymmetric_conv(op):
    kernel = op.attrs.get("kernel")
    return (
        op.kind == "CONV_2D"
        and isinstance(kernel, tuple)
        and kernel[0] != kernel[1]
    )


def _is_large_depthwise(op):
    kernel = op.attrs.get("kernel")
    if isinstance(kernel, tuple):
        kernel = max(kernel)
    return op.kind == "DEPTHWISE_CONV_2D" and (kernel or 0) > 3


#: NNAPI feature levels by Android generation. The paper measures the
#: SD845-era 1.1 drivers and notes "future iterations may likely fix
#: this performance bug"; the later levels model exactly that repair.
NNAPI_1_1 = 1.1
NNAPI_1_2 = 1.2
NNAPI_1_3 = 1.3


def supports_op(backend, op, dtype, feature_level=NNAPI_1_1):
    """Does ``backend``'s driver implement ``op`` at ``dtype``?

    ``feature_level`` only affects the NNAPI backends: 1.2 adds the
    quantized large-kernel depthwise convolutions (fixing the paper's
    EfficientNet-Lite0 pathology), 1.3 adds the asymmetric-kernel
    convolutions the Inception family needs.
    """
    try:
        kinds = _MATRIX[backend][dtype]
    except KeyError:
        raise KeyError(f"unknown backend/dtype {backend!r}/{dtype!r}") from None
    if op.kind not in kinds:
        return False
    if backend.startswith("nnapi"):
        if _is_asymmetric_conv(op) and feature_level < NNAPI_1_3:
            return False
        if (
            backend == "nnapi-dsp"
            and _is_large_depthwise(op)
            and feature_level < NNAPI_1_2
        ):
            # The SD845-era driver only ships quantized 3x3 depthwise
            # kernels; EfficientNet-Lite0's 5x5 depthwise stages are the
            # "INT8 operators the model implementation used" that the
            # paper found lacking driver support.
            return False
    return True
