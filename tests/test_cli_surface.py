"""The parsed surface of ``repro-power``, pinned.

For every subcommand, each argument's (option strings, dest, default,
const, choices, nargs, required) as ``build_parser()`` sets it up. The
literal was taken from the hand-written parsers the flag table
replaced; any change to a flag name, default or arity shows up here.
"""

import argparse

from repro.cli import build_parser

SUPPRESS = argparse.SUPPRESS

SURFACE = {'list': [(('-h', '--help'), 'help', SUPPRESS, None, None, 0, False)],
 'obs-diff': [(('-h', '--help'), 'help', SUPPRESS, None, None, 0, False),
              ((), 'run_a', None, None, None, None, True),
              ((), 'run_b', None, None, None, None, True),
              (('--store',), 'store', '', None, None, None, False),
              (('--flight-a',), 'flight_a', '', None, None, None, False),
              (('--flight-b',), 'flight_b', '', None, None, None, False),
              (('-o', '--output'), 'output', '', None, None, None, False),
              (('--fail-on-regression',), 'fail_on_regression', False, True, None, 0, False),
              (('--flag-timing',), 'flag_timing', False, True, None, 0, False),
              (('--title',), 'title', 'Run diff', None, None, None, False)],
 'obs-history': [(('-h', '--help'), 'help', SUPPRESS, None, None, 0, False),
                 (('--store',), 'store', None, None, None, None, True),
                 (('--limit',), 'limit', 20, None, None, None, False),
                 (('--z-threshold',), 'z_threshold', 3.5, None, None, None, False),
                 (('-o', '--output'), 'output', '', None, None, None, False)],
 'obs-report': [(('-h', '--help'), 'help', SUPPRESS, None, None, 0, False),
                ((), 'flight_jsonl', None, None, None, None, True),
                (('--metrics',), 'metrics', '', None, None, None, False),
                (('--events',), 'events', '', None, None, None, False),
                (('-o', '--output'), 'output', '', None, None, None, False),
                (('--power-limit',), 'power_limit', None, None, None, None, False),
                (('--title',), 'title', 'Run report', None, None, None, False)],
 'obs-watch': [(('-h', '--help'), 'help', SUPPRESS, None, None, 0, False),
               ((), 'events', '', None, None, '?', False),
               (('--store',), 'store', '', None, None, None, False),
               (('--run',), 'run', None, None, None, None, False),
               (('--interval',), 'interval', 1.0, None, None, None, False),
               (('--once',), 'once', False, True, None, 0, False),
               (('--max-wait',), 'max_wait', 0.0, None, None, None, False),
               (('-o', '--output'), 'output', '', None, None, None, False)],
 'report': [(('-h', '--help'), 'help', SUPPRESS, None, None, 0, False),
            ((), 'output_dir', None, None, None, None, True),
            (('--experiments',), 'experiments', [], None, None, '*', False),
            (('--full',), 'full', False, True, None, 0, False),
            (('--seed',), 'seed', 2025, None, None, None, False),
            (('--log-level',), 'log_level', '', None, None, None, False),
            (('--log-json',), 'log_json', False, True, None, 0, False),
            (('--metrics-out',), 'metrics_out', '', None, None, None, False),
            (('--flight-out',), 'flight_out', '', None, None, None, False),
            (('--flight-capacity',), 'flight_capacity', 65536, None, None, None, False),
            (('--flight-sample',), 'flight_sample', 1, None, None, None, False),
            (('--profile',), 'profile', False, True, None, 0, False),
            (('--events-out',), 'events_out', '', None, None, None, False),
            (('--store',), 'store', '', None, None, None, False),
            (('--run-name',), 'run_name', '', None, None, None, False),
            (('--serve-metrics',), 'serve_metrics', None, None, None, None, False),
            (('--alerts',), 'alerts', '', None, None, None, False),
            (('--backend',),
             'backend',
             'serial',
             None,
             ('serial', 'batched'),
             None,
             False),
            (('--faults',), 'faults', '', None, None, None, False),
            (('--aggregator',), 'aggregator', '', None, None, None, False),
            (('--checkpoint',), 'checkpoint', '', None, None, None, False),
            (('--checkpoint-every',), 'checkpoint_every', 1, None, None, None, False),
            (('--resume',), 'resume', False, True, None, 0, False),
            (('--retry-attempts',), 'retry_attempts', 3, None, None, None, False),
            (('--guard',), 'guard', False, True, None, 0, False),
            (('--quarantine',), 'quarantine', False, True, None, 0, False),
            (('--churn',), 'churn', '', 'default', None, '?', False),
            (('--topology',), 'topology', '', None, None, None, False),
            (('--selection',), 'selection', '', None, None, None, False),
            (('--async',), 'async_mode', False, True, None, 0, False),
            (('--heartbeat-interval',), 'heartbeat_interval', 1.0, None, None, None, False),
            (('--upload-buffer',), 'upload_buffer', '32:drop-oldest', None, None, None, False),
            (('--quorum',), 'quorum', 0.5, None, None, None, False)],
 'run': [(('-h', '--help'), 'help', SUPPRESS, None, None, 0, False),
         ((), 'experiment_id', None, None, None, None, True),
         (('--full',), 'full', False, True, None, 0, False),
         (('--seed',), 'seed', 2025, None, None, None, False),
         (('--rounds',), 'rounds', 0, None, None, None, False),
         (('--steps',), 'steps', 0, None, None, None, False),
         (('--output',), 'output', '', None, None, None, False),
         (('--log-level',), 'log_level', '', None, None, None, False),
         (('--log-json',), 'log_json', False, True, None, 0, False),
         (('--metrics-out',), 'metrics_out', '', None, None, None, False),
         (('--flight-out',), 'flight_out', '', None, None, None, False),
         (('--flight-capacity',), 'flight_capacity', 65536, None, None, None, False),
         (('--flight-sample',), 'flight_sample', 1, None, None, None, False),
         (('--profile',), 'profile', False, True, None, 0, False),
         (('--events-out',), 'events_out', '', None, None, None, False),
         (('--store',), 'store', '', None, None, None, False),
         (('--run-name',), 'run_name', '', None, None, None, False),
         (('--serve-metrics',), 'serve_metrics', None, None, None, None, False),
         (('--alerts',), 'alerts', '', None, None, None, False),
         (('--backend',), 'backend', 'serial', None, ('serial', 'batched'), None, False),
         (('--faults',), 'faults', '', None, None, None, False),
         (('--aggregator',), 'aggregator', '', None, None, None, False),
         (('--checkpoint',), 'checkpoint', '', None, None, None, False),
         (('--checkpoint-every',), 'checkpoint_every', 1, None, None, None, False),
         (('--resume',), 'resume', False, True, None, 0, False),
         (('--retry-attempts',), 'retry_attempts', 3, None, None, None, False),
         (('--guard',), 'guard', False, True, None, 0, False),
         (('--quarantine',), 'quarantine', False, True, None, 0, False),
         (('--churn',), 'churn', '', 'default', None, '?', False),
         (('--topology',), 'topology', '', None, None, None, False),
         (('--selection',), 'selection', '', None, None, None, False),
         (('--async',), 'async_mode', False, True, None, 0, False),
         (('--heartbeat-interval',), 'heartbeat_interval', 1.0, None, None, None, False),
         (('--upload-buffer',), 'upload_buffer', '32:drop-oldest', None, None, None, False),
         (('--quorum',), 'quorum', 0.5, None, None, None, False)]}


def surface(parser):
    subparsers = next(
        action
        for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    return {
        name: [
            (
                tuple(action.option_strings),
                action.dest,
                action.default,
                action.const,
                tuple(action.choices) if action.choices else None,
                action.nargs,
                action.required,
            )
            for action in command._actions
        ]
        for name, command in subparsers.choices.items()
    }


def test_every_subcommand_parses_as_pinned():
    assert surface(build_parser()) == SURFACE


def test_subcommands_keep_their_order():
    assert list(surface(build_parser())) == [
        "list", "run", "report", "obs-report", "obs-diff", "obs-history", "obs-watch",
    ]
