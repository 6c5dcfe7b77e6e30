"""Exact-arithmetic tools for base-p expansions: morphic words, repetition
detection, approximation certificates, continued fractions, and the
Thue-Morse decomposition machinery."""

from .arithmetic import *
from .cf import *
from .classify import *
from .repetitions import *
from .tm import *
from .witness import *
from .words import *

__version__ = "0.1.0"
