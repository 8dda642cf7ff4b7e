"""Workload generation: scenarios and synthetic presentations."""

from .generator import RequestEvent, WorkloadConfig, generate, member_names, scenario
from .presentations import figure1_presentation, lecture_ocpn, random_presentation

__all__ = [
    "RequestEvent",
    "WorkloadConfig",
    "figure1_presentation",
    "generate",
    "lecture_ocpn",
    "member_names",
    "random_presentation",
    "scenario",
]
