from .dual import Dual
from .nodes import Binary, Call, MatLit, Name, Node, Num, Unary
from .parser import ExprAST, parse

__all__ = [
    "Binary", "Call", "Dual", "ExprAST", "MatLit", "Name", "Node", "Num",
    "Unary", "parse",
]
