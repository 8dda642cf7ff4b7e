"""Floor control — the paper's primary contribution.

Public API::

    from repro.core import (
        FCMMode, PolicyFactor,
        Member, Group, GroupRegistry, Role,
        ResourceModel, ResourceVector, ResourceLevel,
        FloorControlServer, Arbitrator,
        FloorRequest, FloorGrant, FloorToken, RequestOutcome,
    )
"""

from .arbitrator import ArbitrationStats, Arbitrator
from .floor import FloorGrant, FloorRequest, FloorToken, RequestOutcome
from .groups import Group, GroupRegistry, Invitation, InvitationState, Member, Role
from .modes import MIN_CONTROLLED_PRIORITY, FCMMode, PolicyFactor
from .resources import ResourceLevel, ResourceModel, ResourceVector
from .server import FloorControlServer
from .stations import StationArbiter
from .suspension import ActiveMedia, MediaLedger, SuspensionManager, plan_suspension

__all__ = [
    "ActiveMedia",
    "ArbitrationStats",
    "Arbitrator",
    "FCMMode",
    "FloorControlServer",
    "FloorGrant",
    "FloorRequest",
    "FloorToken",
    "Group",
    "GroupRegistry",
    "Invitation",
    "InvitationState",
    "MIN_CONTROLLED_PRIORITY",
    "MediaLedger",
    "Member",
    "PolicyFactor",
    "RequestOutcome",
    "ResourceLevel",
    "ResourceModel",
    "ResourceVector",
    "Role",
    "StationArbiter",
    "SuspensionManager",
    "plan_suspension",
]
