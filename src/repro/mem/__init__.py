"""Memory-system substrates: caches, MSHRs, write buffers, DRAM, TLB.

These structures are protocol-agnostic; the MESI coherence layer in
:mod:`repro.coherence` stores its line states inside :class:`CacheArray`
entries, and the cores in :mod:`repro.cpu` own the L1 instances.
"""

from .address import AddressSpace
from .cache import CacheArray, CacheLineEntry
from .dram import DRAMModel
from .memimage import MemoryImage
from .mshr import MSHRFile
from .prefetcher import StridePrefetcher
from .tlb import DataTLB
from .writebuffer import WriteBuffer

__all__ = [
    "AddressSpace",
    "CacheArray",
    "CacheLineEntry",
    "DRAMModel",
    "MemoryImage",
    "MSHRFile",
    "StridePrefetcher",
    "DataTLB",
    "WriteBuffer",
]
