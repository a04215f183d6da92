"""Model graphs: ordered op lists with aggregate accounting."""

from dataclasses import dataclass, field, replace

from repro.models.tensor import TensorSpec, dtype_bytes


@dataclass(frozen=True)
class ModelGraph:
    """A topologically ordered inference graph.

    The op list is execution order; framework partitioners slice it into
    contiguous runs per device (NNAPI's "model partitioning" step).
    """

    name: str
    task: str
    input_spec: TensorSpec
    ops: tuple
    dtype: str = "fp32"
    #: Output feature count (classes, keypoints, ...) for post-processing.
    output_features: int = 1000
    metadata: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        if not self.ops:
            raise ValueError(f"model {self.name!r} has no ops")
        if self.dtype not in ("fp32", "fp16", "int8"):
            raise ValueError(f"unsupported model dtype {self.dtype!r}")

    # -- aggregates -----------------------------------------------------

    @property
    def total_flops(self):
        return sum(op.flops for op in self.ops)

    @property
    def total_macs(self):
        return self.total_flops / 2.0

    @property
    def total_params(self):
        return sum(op.params for op in self.ops)

    @property
    def weight_bytes(self):
        return self.total_params * dtype_bytes(self.dtype)

    @property
    def input_bytes(self):
        return self.input_spec.numel * dtype_bytes(self.dtype)

    @property
    def output_bytes(self):
        return self.output_features * dtype_bytes(self.dtype)

    @property
    def op_count(self):
        return len(self.ops)

    @property
    def peak_activation_bytes(self):
        """Peak live activation memory along the (linear) graph.

        For a topologically linear schedule the interpreter needs one
        op's inputs and outputs resident simultaneously; the arena high
        water mark is the max over ops. Branchy regions (Inception
        towers) are approximated by their widest op.
        """
        item = dtype_bytes(self.dtype)
        return max(
            (op.input_elems + op.output_elems) * item for op in self.ops
        )

    @property
    def memory_footprint_bytes(self):
        """Weights plus the activation arena: the app's resident cost."""
        return self.weight_bytes + self.peak_activation_bytes

    def with_dtype(self, dtype):
        """Same topology with a different execution dtype."""
        return replace(
            self,
            dtype=dtype,
            input_spec=self.input_spec.with_dtype(dtype),
        )

    def summary(self):
        """One-line human summary used by reports and examples."""
        return (
            f"{self.name} [{self.dtype}] {self.input_spec}: "
            f"{self.op_count} ops, {self.total_macs / 1e6:.0f} MMACs, "
            f"{self.total_params / 1e6:.2f} M params"
        )

    def __repr__(self):
        return f"<ModelGraph {self.summary()}>"
