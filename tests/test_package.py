import vista


def test_public_names_are_pinned():
    assert vista.__all__ == [
        "AgentTrack",
        "Config",
        "DataConfig",
        "EvalConfig",
        "EvalInput",
        "Model",
        "ModelConfig",
        "ParamStore",
        "PredictionSet",
        "ScenarioSpec",
        "Scene",
        "SceneRaster",
        "TrainConfig",
        "init_params",
    ]
    assert all(hasattr(vista, name) for name in vista.__all__)
