from .dual import Dual
from .nodes import Binary, Bind, Call, MatLit, Name, Node, Num, Unary
from .parser import ExprAST, parse

__all__ = [
    "Binary", "Bind", "Call", "Dual", "ExprAST", "MatLit", "Name", "Node",
    "Num", "Unary", "parse",
]
