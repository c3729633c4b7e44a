"""SW-centric availability models — section VI, Eqs. (9)-(15).

The controller is evaluated at the process level: each role contributes a
product of per-process m-of-x quorum blocks (Eq. 13), where the number of
operational node-role platforms is conditioned on the infrastructure
(Eqs. 9/15) and — when the supervisor is required (scenario 2) — on the
supervisor instances (Eqs. 12, 14).

Two evaluation routes, cross-checked in the tests:

* :func:`plane_availability` — closed-form conditioning for the reference
  topologies (Small, Medium, Large), following the paper's derivations with
  per-process availabilities (``A`` for auto-restarted processes, ``A_S``
  for manual — see the DESIGN.md fidelity note: the paper's *quoted
  numbers* require this, although its printed formulas abbreviate
  ``alpha = A``).
* :func:`plane_availability_exact` — the generic enumeration engine over an
  explicit :class:`DeploymentTopology`, valid for arbitrary layouts.

Summation ranges are exact (all platform counts 0..n), which subsumes the
paper's printed two-term expansions; omitted terms are zero for the CP
(the Database quorum forces them) and below reporting precision for the DP.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.controller.role import RoleSpec
from repro.controller.spec import ControllerSpec, Plane
from repro.core.kofn import binomial_pmf
from repro.errors import ModelError
from repro.models.engine import (
    RoleRequirement,
    UnitRequirement,
    _conditional_role_term,
    evaluate_topology,
)
from repro.params.hardware import HardwareParams
from repro.params.software import RestartScenario, SoftwareParams
from repro.topology.deployment import DeploymentTopology


def _role_units(
    role: RoleSpec, plane: Plane, software: SoftwareParams
) -> tuple[UnitRequirement, ...]:
    """The role's quorum units with resolved per-instance availabilities."""
    amap = software.availability_map()
    return tuple(
        UnitRequirement(unit.label, unit.quorum, unit.alpha(amap))
        for unit in role.quorum_units(plane.value)
    )


def _role_platform_extra(
    role: RoleSpec, software: SoftwareParams, scenario: RestartScenario
) -> float:
    """Per-platform survival factor beyond infrastructure.

    In scenario 2 ("supervisor required") a node-role with a dead supervisor
    is entirely down, so each platform additionally needs its supervisor up
    (probability ``A_S``).  Roles without a supervisor, and scenario 1, have
    no extra factor.
    """
    if scenario is RestartScenario.REQUIRED and role.supervisor is not None:
        return software.a_unsupervised
    return 1.0


def _role_term(
    term: Callable[[int], float], candidates: int, rho: float
) -> float:
    """Eq. (12)-(14) for one role.

    ``candidates`` platforms each survive independently with probability
    ``rho``; given ``g`` survivors the role's availability is ``term(g)``,
    the product of its units' ``A_{m/g}(alpha)`` (Eq. 13).  ``rho = 1``
    collapses to the unconditioned Eq. (10) product.
    """
    if rho == 1.0:
        return term(candidates)
    total = 0.0
    for g in range(candidates + 1):
        weight = binomial_pmf(g, candidates, rho)
        if weight == 0.0:
            continue
        total += weight * term(g)
    return total


def _plane_roles(
    spec: ControllerSpec,
    plane: Plane,
    software: SoftwareParams,
    scenario: RestartScenario,
) -> list[tuple[Callable[[int], float], float]]:
    """Each required role's ``term(g)`` and per-platform extra factor.

    Resolved once per plane evaluation: the quorum units, and the product
    of their blocks for each survivor count ``g`` (memoized, as the exact
    engine does), are shared by every conditioning count.
    """
    return [
        (
            _conditional_role_term(requirement.units),
            requirement.extra_instance_availability,
        )
        for requirement in plane_requirements(spec, plane, software, scenario)
    ]


def _roles_product(
    roles: Sequence[tuple[Callable[[int], float], float]],
    candidates: int,
    rho_base: float,
) -> float:
    """Product over cluster roles (:func:`_plane_roles`) of their terms."""
    value = 1.0
    for term, extra in roles:
        rho = rho_base * extra
        value *= _role_term(term, candidates, rho)
        if value == 0.0:
            return 0.0
    return value


# -- closed forms for the reference topologies ---------------------------------


def _plane_required(
    spec: ControllerSpec, plane: Plane
) -> bool:
    """Whether any cluster role has a quorum unit for the plane.

    A plane that requires no processes does not depend on the controller
    infrastructure at all; its availability is 1 regardless of topology
    (degenerate case outside the paper's tables, handled for generality).
    """
    return any(
        role.quorum_units(plane.value) for role in spec.cluster_roles
    )


def _small(
    spec: ControllerSpec,
    plane: Plane,
    hardware: HardwareParams,
    software: SoftwareParams,
    scenario: RestartScenario,
) -> float:
    """Options 1S/2S — Eqs. (9)-(14): condition on {VM+host} blocks."""
    roles = _plane_roles(spec, plane, software, scenario)
    if not roles:
        return 1.0
    n = spec.cluster_size
    block = hardware.vm_host_block
    total = 0.0
    for x in range(n + 1):
        weight = binomial_pmf(x, n, block)
        if weight > 0.0:
            total += weight * _roles_product(roles, x, 1.0)
    return total * hardware.a_rack


def _medium(
    spec: ControllerSpec,
    plane: Plane,
    hardware: HardwareParams,
    software: SoftwareParams,
    scenario: RestartScenario,
) -> float:
    """SW-centric Medium (not printed in the paper): racks, then hosts.

    Role VMs are private per node-role, so the per-platform survival
    probability is ``A_V`` (times ``A_S`` in scenario 2).
    """
    roles = _plane_roles(spec, plane, software, scenario)
    if not roles:
        return 1.0
    n = spec.cluster_size
    if n < 2:
        raise ModelError("the Medium topology needs at least 2 nodes")
    a_h, a_r = hardware.a_host, hardware.a_rack

    def hosts_term(k: int) -> float:
        return sum(
            binomial_pmf(x, k, a_h)
            * _roles_product(roles, x, hardware.a_vm)
            for x in range(k + 1)
        )

    return (
        a_r * a_r * hosts_term(n)
        + a_r * (1.0 - a_r) * hosts_term(n - 1)
        + (1.0 - a_r) * a_r * hosts_term(1)
    )


def _large(
    spec: ControllerSpec,
    plane: Plane,
    hardware: HardwareParams,
    software: SoftwareParams,
    scenario: RestartScenario,
) -> float:
    """Options 1L/2L — Eq. (15) with (12)-(14): condition on racks.

    Each node-role has a private {VM+host} chain, so the per-platform
    survival probability is ``A_V A_H`` (times ``A_S`` in scenario 2 —
    the paper's ``rho = A_S A_V A_H``).
    """
    roles = _plane_roles(spec, plane, software, scenario)
    n = spec.cluster_size
    rho_base = hardware.vm_host_block
    total = 0.0
    for r in range(n + 1):
        weight = binomial_pmf(r, n, hardware.a_rack)
        if weight > 0.0:
            total += weight * _roles_product(roles, r, rho_base)
    return total


_DISPATCH: dict[str, Callable[..., float]] = {
    "small": _small,
    "medium": _medium,
    "large": _large,
}


def plane_availability(
    spec: ControllerSpec,
    plane: Plane,
    topology_name: str,
    hardware: HardwareParams,
    software: SoftwareParams,
    scenario: RestartScenario,
) -> float:
    """Closed-form SW-centric availability of one plane's shared portion.

    For ``Plane.CP`` this is the paper's ``A_CP``; for ``Plane.DP`` it is
    the *shared* DP contribution ``A_SDP`` (combine with the local vRouter
    term via :func:`repro.models.dataplane.dp_availability`).
    """
    try:
        model = _DISPATCH[topology_name.lower()]
    except KeyError:
        raise ModelError(
            f"no SW-centric closed form for topology {topology_name!r}; "
            f"expected one of {sorted(_DISPATCH)}"
        ) from None
    return model(spec, plane, hardware, software, scenario)


def cp_availability(
    spec: ControllerSpec,
    topology_name: str,
    hardware: HardwareParams,
    software: SoftwareParams,
    scenario: RestartScenario,
) -> float:
    """The paper's ``A_CP`` for a reference topology and restart scenario."""
    return plane_availability(
        spec, Plane.CP, topology_name, hardware, software, scenario
    )


def shared_dp_availability(
    spec: ControllerSpec,
    topology_name: str,
    hardware: HardwareParams,
    software: SoftwareParams,
    scenario: RestartScenario,
) -> float:
    """The paper's ``A_SDP`` — controller-side contribution to every host DP."""
    return plane_availability(
        spec, Plane.DP, topology_name, hardware, software, scenario
    )


# -- exact engine route ----------------------------------------------------------


def plane_requirements(
    spec: ControllerSpec,
    plane: Plane,
    software: SoftwareParams,
    scenario: RestartScenario,
) -> tuple[RoleRequirement, ...]:
    """Engine requirements for one plane (cluster roles with any quorum units)."""
    requirements = []
    for role in spec.cluster_roles:
        units = _role_units(role, plane, software)
        if not units:
            continue
        requirements.append(
            RoleRequirement(
                role.name,
                units,
                _role_platform_extra(role, software, scenario),
            )
        )
    return tuple(requirements)


def plane_availability_exact(
    spec: ControllerSpec,
    plane: Plane,
    topology: DeploymentTopology,
    hardware: HardwareParams,
    software: SoftwareParams,
    scenario: RestartScenario,
) -> float:
    """SW-centric plane availability on an explicit topology (exact engine)."""
    requirements = plane_requirements(spec, plane, software, scenario)
    availability = {
        "rack": hardware.a_rack,
        "host": hardware.a_host,
        "vm": hardware.a_vm,
    }
    return evaluate_topology(topology, requirements, availability)
