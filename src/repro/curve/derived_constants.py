"""FourQ endomorphism and decomposition constants (generated; do not edit).

Written by ``python -m repro derive --write`` from
repro.curve.derive.derive_endomorphisms and
repro.curve.decompose.FourQDecomposer; repro.curve.committed rebuilds
the maps from these values and verifies them at load.
"""

#: x of the kernel of tau: E_W -> W
TAU_KERNEL_X = (0x40000000000000260000000000000035, 0x250bdd40bbb9502a1deb036c2854acc2)

#: x of the kernel of tau_dual: W -> E_W (up to u_tau_dual)
TAU_DUAL_KERNEL_X = (0x7fffffffffffffb3ffffffffffffff94, 0x35e8457e888d5fabc429f927af56a67b)

#: x of the kernel of delta: W -> conj(W) (up to u_delta)
DELTA_KERNEL_X = (0x7fffffffffffffb3ffffffffffffff93, 0x35e8457e888d5fabc429f927af56a67b)

#: the F_{p^4} kernel x pair of the 5-isogeny W -> conj(W)
VELU5_KERNEL_XS = (
    (
        (0x7fffffffffffffaaffffffffffffff87, 0x7056b03cfe749a0d5d8ed753ea517887),
        (0x7bcf70edcb78015c0f19dd6e5fc0c632, 0x3488f05013e94afc7c781c4b2679ca6a),
    ),
    (
        (0x7fffffffffffffaaffffffffffffff87, 0x7056b03cfe749a0d5d8ed753ea517887),
        (0x4308f123487fea3f0e62291a03f39cd, 0x4b770fafec16b5038387e3b4d9863595),
    ),
)

#: isomorphism scalar after tau_dual
U_TAU_DUAL = (0x40000000000000000000000000000000, 0x0)

#: isomorphism scalar after delta
U_DELTA = (0x19a6c874f1414b7ce2c8caa0c50c62cf, 0x30000000000000005)

#: isomorphism scalar after the 5-isogeny
U_VELU5 = (0x20000000000000003, 0x55882d4d93b699bd046146cfd48bc5d1)

#: eigenvalue of phi on the order-N subgroup (sqrt(-20) mod N)
LAMBDA_PHI = 0x36c834ee43b6441e0c781e09eb9bb1243a785af26d54de6f8731e744cbc32

#: eigenvalue of psi on the order-N subgroup (sqrt(8) mod N)
LAMBDA_PSI = 0xc623a9a9a8c934626128855a9da8f659b446504f787442ee3f95be6fe9544

#: reduced basis of the decomposition lattice
BASIS = (
    (0x4837f93f05050cb, -0x1363e862c22a2da0, 0x7426031ecc8030f, -0x109ee7330d73cca2),
    (0x1059562281dfd24c, -0x109fc747dea1534f, -0x270ac1979c5fc190, 0x49df75672e9ce8c),
    (0x1b77dbdb22dba660, 0x1f210758737b3eba, -0x166e7aa3027488f5, -0x11cec322ed2fad0f),
    (0x22ca32d5c41ad714, 0x8f8fddacdc836c8, 0x1f210758737b3eba, 0x140d0299a0a1bac1),
)
