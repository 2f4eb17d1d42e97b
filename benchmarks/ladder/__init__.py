"""Layer-ladder benchmark (see README.md).

A package only so that its modules import each other as ``ladder.x``:
``ladder/trace.py`` on ``sys.path`` directly would shadow the standard
library's ``trace``.
"""
