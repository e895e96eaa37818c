"""Sequence-labeling toolkit for disfluency detection built around an
auto-correlational first layer: from-scratch tensors and operators, a CNN
baseline, a synthetic corpus generator, and a benchmark harness."""

try:
    from numpy._core.multiarray import _set_madvise_hugepage
except ImportError:  # numpy 1.x names the module numpy.core
    from numpy.core.multiarray import _set_madvise_hugepage

__version__ = "0.1.0"

# numpy asks Linux for 2 MB transparent huge pages on every array of 4 MB or
# more. Once glibc has freed a model's weights it places the next model's in
# its heap, where a huge page is resident in full when any 4 KB of it is
# touched; how many such pages a process gets then follows where its heap
# starts, which the kernel randomises per process. Building or loading a
# cnn-table1 model five times over put the peak RSS either near 109 MB or
# near 115 MB from one run to the next. With 4 KB pages the peak is what the
# process touches, at the price of more page faults when a model is built
# or loaded.
_set_madvise_hugepage(False)
