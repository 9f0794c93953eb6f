"""The FourQ elliptic curve: parameters, points, endomorphisms, scalar mult.

Public surface:

* :class:`repro.curve.point.AffinePoint` — reference group law;
* :func:`repro.curve.scalarmult.scalar_mul_fourq` — the paper's
  endomorphism-accelerated Algorithm 1;
* :class:`repro.curve.decompose.FourQDecomposer` and
  :func:`repro.curve.recoding.recode_glv_sac` — scalar preprocessing;
* :func:`repro.curve.derive.derive_endomorphisms` — phi/psi derived
  from first principles and fully verified;
* :func:`repro.curve.committed.curve_constants` — the same maps, the
  compiled maps and the decomposer, loaded from the committed
  :mod:`repro.curve.derived_constants` and verified at load.
"""

from .decompose import Decomposition, FourQDecomposer
from .edwards import (
    RAW_OPS,
    Fp2Ops,
    PointR1,
    PointR2,
    PointR3,
    RawFp2Ops,
    ecc_add_core,
    ecc_double,
    ecc_normalize,
    fp2_inverse_chain,
    point_r1_from_affine,
    r1_to_r2,
    r1_to_r3,
    r2_negate,
)
from .endomorphisms import (
    EigenvalueEndomorphisms,
    EndomorphismProvider,
    default_decomposer,
    default_endomorphisms,
)
from .params import (
    COFACTOR,
    CURVE_ORDER,
    D,
    FOURQ,
    GENERATOR_X,
    GENERATOR_Y,
    PRIME_P,
    SUBGROUP_ORDER_N,
    CurveInfo,
    is_on_curve,
    verify_parameters,
)
from .encoding import DecodingError, decode_point, encode_point
from .fixedbase import FixedBaseTable
from .multiscalar import batch_verify_schnorr, multi_scalar_mul
from .point import AffinePoint, lift_x, random_point, random_subgroup_point
from .recoding import RecodedScalar, recode_glv_sac, recoded_to_scalars
from .scalarmult import (
    build_table,
    scalar_mul_double_base,
    fourq_main_loop,
    scalar_mul_double_and_add,
    scalar_mul_always_double_add,
    scalar_mul_fourq,
    scalar_mul_wnaf,
)

__all__ = [
    "AffinePoint",
    "DecodingError",
    "FixedBaseTable",
    "batch_verify_schnorr",
    "decode_point",
    "encode_point",
    "multi_scalar_mul",
    "COFACTOR",
    "CURVE_ORDER",
    "CurveInfo",
    "D",
    "Decomposition",
    "EigenvalueEndomorphisms",
    "EndomorphismProvider",
    "FOURQ",
    "FourQDecomposer",
    "Fp2Ops",
    "GENERATOR_X",
    "GENERATOR_Y",
    "PRIME_P",
    "PointR1",
    "PointR2",
    "PointR3",
    "RAW_OPS",
    "RawFp2Ops",
    "RecodedScalar",
    "SUBGROUP_ORDER_N",
    "build_table",
    "default_decomposer",
    "default_endomorphisms",
    "ecc_add_core",
    "ecc_double",
    "ecc_normalize",
    "fourq_main_loop",
    "fp2_inverse_chain",
    "is_on_curve",
    "lift_x",
    "point_r1_from_affine",
    "r1_to_r2",
    "r1_to_r3",
    "r2_negate",
    "random_point",
    "random_subgroup_point",
    "recode_glv_sac",
    "recoded_to_scalars",
    "scalar_mul_double_and_add",
    "scalar_mul_double_base",
    "scalar_mul_always_double_add",
    "scalar_mul_fourq",
    "scalar_mul_wnaf",
    "verify_parameters",
]
