"""Pattern trees and the structural join (the PatternScan machinery).

The paper's PatternScan family (after Aguilera et al.'s Xyleme operator)
matches a **pattern tree** against a forest: pattern nodes are index terms
(element names or content words), edges carry isParentOf / isAncestorOf /
containment relationships, and evaluation is a multiway join of the terms'
posting lists on document identity plus those relationships — extended with
time in the temporal variants.
"""

from .tree import Pattern, PatternNode
from .structjoin import PatternMatch, structural_join

__all__ = [
    "Pattern",
    "PatternNode",
    "PatternMatch",
    "structural_join",
]
